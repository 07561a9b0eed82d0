package sim_test

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/sim"
)

// BenchmarkSimRun times replaying the compiled KARMA plan of one Fig. 5
// point, ResNet-1001 at batch 256, on a warm Runner: the first run,
// outside the timer, sizes its buffers, so the loop measures the
// event-driven simulation alone.
func BenchmarkSimRun(b *testing.B) {
	g, err := model.Build("resnet1001")
	if err != nil {
		b.Fatal(err)
	}
	p, err := profiler.New(g, hw.ABCINode(), profiler.Options{Batch: 256})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := karma.Plan(p, karma.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := karma.BuildPlan(sched)
	if err != nil {
		b.Fatal(err)
	}
	c, err := pl.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var r sim.Runner
	//karma:plan-ok ops come from Compile on a validated plan; the warm Runner is the layer under test
	if _, err := r.Run(c.Ops, sched.Budget); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		//karma:plan-ok same compiled ops as above
		if _, err := r.Run(c.Ops, sched.Budget); err != nil {
			b.Fatal(err)
		}
	}
}
