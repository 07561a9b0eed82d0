package profiler

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
)

// BenchmarkProfile times profiling one Fig. 5 point, ResNet-1001 at
// batch 256: segmenting the graph and costing every block. The graph is
// built outside the timer. New keeps no caches, so every iteration does
// the full work.
func BenchmarkProfile(b *testing.B) {
	g, err := model.Build("resnet1001")
	if err != nil {
		b.Fatal(err)
	}
	node := hw.ABCINode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(g, node, Options{Batch: 256}); err != nil {
			b.Fatal(err)
		}
	}
}
