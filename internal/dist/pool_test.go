package dist

import (
	"runtime"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/race"
)

// TestPlanScratchSurvivesGC holds dist's plan-scratch free list to what
// it is for: after two garbage collections, which empty a sync.Pool, a
// warm planned evaluation of each BenchmarkPlannedEval family still
// lowers and simulates on a scratch an earlier evaluation grew. Each
// measured call starts with the two collections; a scratch lost to them
// would regrow its stage arenas, compiler and runner on every call. The
// ceilings are the counts measured with the free list in place (the
// pipeline's is 4 above its count without the collections, from state
// outside dist's free list).
func TestPlanScratchSurvivesGC(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cl := hw.ABCI()
	mega, turing := model.MegatronConfigs()[2], model.TuringNLG()
	o := HybridOptions{Phased: true, Checkpoint: true}
	pe := NewPlanned()
	for _, c := range []struct {
		name string
		eval func() (*Result, error)
		want float64
	}{
		{"karma-dp", func() (*Result, error) {
			return pe.KARMADataParallel(CachedTransformer(mega), cl, 512, 4, samples, KARMAOptions{})
		}, 13},
		{"zero", func() (*Result, error) { return pe.ZeRO(turing, cl, 16, 512, 2, samples, o) }, 26},
		{"pipeline", func() (*Result, error) { return pe.Pipeline(turing, cl, 16, 512, 8, 8, samples, o) }, 30},
	} {
		if r, err := c.eval(); err != nil || r.Backend != "planned" {
			t.Fatalf("%s warm-up: %+v, %v", c.name, r, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			runtime.GC()
			runtime.GC()
			if _, err := c.eval(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.want {
			t.Errorf("%s: evaluation after two GCs allocated %.0f objects, want at most %.0f", c.name, allocs, c.want)
		}
	}
}
