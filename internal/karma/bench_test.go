package karma

import "testing"

// BenchmarkPlan times the Opt-1/Opt-2 search of one Fig. 5 point,
// ResNet-1001 at batch 256, with and without the recompute interleave.
// The profile is built outside the timer. Plan keeps no caches across
// calls (every memo lives in one call's searcher), so a cold run differs
// from a warm one only by process warm-up.
func BenchmarkPlan(b *testing.B) {
	p := profileFor(b, "resnet1001", 256)
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"recompute", Options{}},
		{"swap-only", Options{DisableRecompute: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(p, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
