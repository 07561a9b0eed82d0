package dist

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

// BenchmarkTimelineBreakdown times the attribution layer alone: the
// critical-path breakdown of one simulated plan, the out-of-core KARMA
// replica of Megatron-LM 2.5B at batch 4 on 512 GPUs (a Fig. 8 karma-dp
// cell, with swap, recompute and exchange ops to attribute). The plan
// is searched, built and simulated once, outside the timer.
func BenchmarkTimelineBreakdown(b *testing.B) {
	cl := hw.ABCI()
	const gpus = 512
	p, err := replicaProfile(CachedTransformer(model.MegatronConfigs()[2]), cl.Node, 4, tensor.FP32)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewPlanned().replicaSchedule(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := replicaPlan(s, cl, gpus, KARMAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	c, tl, err := pl.Simulate(s.Budget)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timelineBreakdown(c, tl)
	}
}
