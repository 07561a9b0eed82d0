package karma

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/unit"
)

// BenchmarkPlan times the Opt-1/Opt-2 search of one Fig. 5 point,
// ResNet-1001 at batch 256, with and without the recompute interleave.
// The profile is built outside the timer. Plan shares its Opt-1 stage
// across calls on the same profile (see stages), so each setting is
// timed two ways: /warm plans the same profile every iteration, so only
// Opt-2 runs (the stage is primed before the timer); /cold plans a
// fresh shallow copy of the profile, made outside the timer, so the
// stage misses and both stages run. /pair plans both settings on one
// fresh copy, the Fig. 5 pattern: one Opt-1 search and two Opt-2
// refinements.
func BenchmarkPlan(b *testing.B) {
	p := profileFor(b, "resnet1001", 256)
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"recompute", Options{}},
		{"swap-only", Options{DisableRecompute: true}},
	} {
		b.Run(c.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			if _, err := Plan(p, c.opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(p, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				q := fresh(p)
				b.StartTimer()
				if _, err := Plan(q, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			q := fresh(p)
			b.StartTimer()
			for _, o := range []Options{{DisableRecompute: true}, {}} {
				if _, err := Plan(q, o); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCheckpoint times the checkpoint run-count scan on a Megatron
// hybrid's shard: megatron-8.3B at MP=8, batch 8.
// At the tightest feasible budget the scan walks down from the most runs
// to the first that fits; one byte below it, every run count is costed
// and the call fails, the capacity boundary a ZeRO batch sweep probes.
// /ladder is that sweep's pattern on one profile (see checkpointLadder):
// a fresh scan per iteration answers every budget of the ladder in
// order, and the infeasible ones also ask its minimum.
func BenchmarkCheckpoint(b *testing.B) {
	sh := model.TransformerShard(model.MegatronConfigs()[4], 8)
	p, err := profiler.New(sh.Graph, hw.ABCINode(), profiler.Options{Batch: 8})
	if err != nil {
		b.Fatal(err)
	}
	tight := CheckpointFootprint(p)
	if tight >= p.TotalActBytes {
		b.Fatalf("checkpointing saves nothing: %v of %v", tight, p.TotalActBytes)
	}
	for _, c := range []struct {
		name   string
		budget unit.Bytes
		fits   bool
	}{
		{"tight", tight, true},
		{"infeasible", tight - 1, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Checkpoint(p, c.budget); (err == nil) != c.fits {
					b.Fatalf("Checkpoint at %v: %v", c.budget, err)
				}
			}
		})
	}
	lp, budgets := checkpointLadder(b)
	b.Run("ladder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := NewCheckpointScan(lp)
			for _, budget := range budgets {
				if _, err := sc.Fit(budget); err != nil {
					sc.Min()
				}
			}
		}
	})
}

// checkpointLadder returns the profile and budgets one rung of a ZeRO
// capacity ladder asks: the Turing-NLG shard at MP=8 (fp32) under the
// activation budget ZeRO leaves at each GPU count of the Fig. 8 panel
// (device memory less 3% headroom, the shard's weights, and its
// gradients divided over the replicas), in sweep order. The batch is the
// ladder's top feasible rung — the largest power of two at which the
// fewest-GPU budget still fits — where the fits sit closest to the
// minimal footprint, so the scan runs deepest.
func checkpointLadder(b *testing.B) (*profiler.Profile, []unit.Bytes) {
	const mp = 8
	sh := model.TransformerShard(model.TuringNLG(), mp)
	node := hw.ABCINode()
	usable := node.Device.UsableMem()
	m := usable - unit.Bytes(float64(usable)*0.03)
	var last *profiler.Profile
	var lastBudgets []unit.Bytes
	for batch := 1; batch <= 1<<12; batch *= 2 {
		p, err := profiler.New(sh.Graph, node, profiler.Options{Batch: batch})
		if err != nil {
			b.Fatal(err)
		}
		var budgets []unit.Bytes
		for _, gpus := range []int{128, 256, 512, 1024, 2048} {
			w, replicas := p.TotalWeightBytes, unit.Bytes(gpus/mp)
			budgets = append(budgets, m-w-(w+replicas-1)/replicas)
		}
		if _, err := Checkpoint(p, budgets[0]); err != nil {
			break
		}
		last, lastBudgets = p, budgets
	}
	if last == nil {
		b.Fatal("no rung of the ladder fits")
	}
	return last, lastBudgets
}
