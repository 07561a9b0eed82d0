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
}
