package dist

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
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
	pl, err := refReplicaPlan(s, cl, gpus, KARMAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	c, tl, err := pl.Simulate(s.Budget)
	if err != nil {
		b.Fatal(err)
	}
	kind := func(i int) plan.Kind { return c.PlanOps[i].Kind }
	var buf breakdownBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timelineBreakdown(c.Ops, kind, tl, &buf)
	}
}

// BenchmarkHybridIter times one planned MP+DP iteration past the shared
// setup: the Fig. 8 Megatron-LM 8.3B mp+dp-opt cell at 512 GPUs (MP=8,
// batch 4, checkpointed, phased exchange). /lower lowers and compiles
// the full plan per call, the path the recording evaluator takes;
// /patched is the sweep path, which patches the grid point's durations
// into its shape's compiled template. Both simulate and attribute.
func BenchmarkHybridIter(b *testing.B) {
	cl := hw.ABCI()
	cfg := model.MegatronConfigs()[3]
	const mp, gpus = 8, 512
	o := HybridOptions{Phased: true, Checkpoint: true}
	shard, p, s, bad, err := hybridSetup(cfg, cl, mp, gpus, 4, 1, false, o)
	if err != nil || bad != nil {
		b.Fatalf("setup: %v %+v", err, bad)
	}
	b.Run("lower", func(b *testing.B) {
		sc := new(planScratch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hybridDurations(sc, cfg, p, s, cl, mp, gpus/mp, false, o)
			pl, err := hybridPlan(sc, s, shard, p, false, o.Phased, &sc.d)
			lw, err := lowerFresh(sc, pl, err)
			if err != nil {
				b.Fatal(err)
			}
			//karma:plan-ok ops come from Compile on this scratch
			tl, err := sc.Runner.Run(lw.ops, s.Budget)
			if err != nil {
				b.Fatal(err)
			}
			timelineBreakdown(lw.ops, lw.kind, tl, &sc.bd)
		}
	})
	b.Run("patched", func(b *testing.B) {
		pe := NewPlanned()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _, err := pe.simulate(s.Budget, func(sc *planScratch) (lowered, error) {
				return pe.lowerHybrid(sc, cfg, shard, p, s, cl, mp, gpus/mp, false, o)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlannedEval times one whole planned evaluation through the
// public Planned methods on a warm evaluator (the searches and templates
// cached by a first call), per family: /karma-dp is the weight-streaming
// Megatron-LM 2.5B replica at batch 4 on 512 GPUs, /zero the Turing-NLG
// ZeRO cell at MP=16 and batch 2 on 512 GPUs, and /pipeline Turing-NLG
// in 16 stages with 8 micro-batches of 1 on 512 GPUs, all checkpointed
// where the family allows it. Each sub-benchmark fails unless the
// result was simulated (Backend "planned"), and /karma-dp unless its
// replica swaps.
func BenchmarkPlannedEval(b *testing.B) {
	cl := hw.ABCI()
	mega, turing := model.MegatronConfigs()[2], model.TuringNLG()
	o := HybridOptions{Phased: true, Checkpoint: true}
	pe := NewPlanned()
	for _, bc := range []struct {
		name string
		eval func() (*Result, error)
	}{
		{"karma-dp", func() (*Result, error) {
			return pe.KARMADataParallel(CachedTransformer(mega), cl, 512, 4, samples, KARMAOptions{})
		}},
		{"zero", func() (*Result, error) { return pe.ZeRO(turing, cl, 16, 512, 2, samples, o) }},
		{"pipeline", func() (*Result, error) { return pe.Pipeline(turing, cl, 16, 512, 8, 8, samples, o) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r, err := bc.eval()
			if err != nil || r.Backend != "planned" || (bc.name == "karma-dp" && r.Breakdown.Busy.H2D == 0) {
				b.Fatalf("warm-up: %+v, %v", r, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.eval(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
