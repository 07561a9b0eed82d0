package baseline

import (
	"math/rand"
	"testing"

	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/unit"
)

// fig5Models mirrors the Fig. 5 grid of the experiments package (which
// imports this one): each model with its batch range and the number of
// grid points.
var fig5Models = []struct {
	name           string
	lo, hi, points int
	maxOpen        int
}{
	{"resnet50", 128, 768, 6, 0},
	{"vgg16", 32, 160, 5, 0},
	{"resnet200", 4, 24, 6, 0},
	{"wrn-28-10", 256, 1280, 5, 0},
	{"resnet1001", 64, 320, 5, 0},
	{"unet", 8, 40, 5, 5},
}

// TestCheckmateScanMatchesSimulation pins the chain scan the Checkmate
// sweep costs candidates with to the path it replaces: for every segment
// count of every sampled profile and budget, the scan's (time, ok) must
// equal the simulated (IterTime, Feasible) of recomputeWithSegments bit
// for bit. Budgets shrink to a twentieth of the Fig. 5 budget so that
// checkpoint reserves, working-set misfits and feasible chains all occur.
func TestCheckmateScanMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	node := hw.ABCINode()
	var cases, feasible int
	sc := new(plan.Scratch)
	for _, w := range fig5Models {
		g, err := model.Build(w.name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w.points; i++ {
			batch := w.lo + rng.Intn(w.hi-w.lo+1)
			p, err := profiler.New(g, node, profiler.Options{Batch: batch, MaxOpen: w.maxOpen})
			if err != nil {
				t.Fatal(err)
			}
			full, err := karma.BudgetFor(p, 0.05)
			if err != nil {
				t.Fatalf("%s@%d: %v", w.name, batch, err)
			}
			for _, f := range []float64{1, 0.5, 0.2, 0.05} {
				budget := unit.Bytes(f * float64(full))
				sw, err := newCheckmateSweep(p, budget)
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k <= len(p.Blocks) && k <= 48; k++ {
					gotT, gotOK := sw.iterTime(k)
					want, err := recomputeWithSegments(sc, p, Checkmate, k, budget)
					if err != nil {
						t.Fatal(err)
					}
					if gotOK != want.Feasible || gotT != want.IterTime {
						t.Fatalf("%s@%d budget %.2f k=%d: scan (%v, %v), simulation (%v, %v: %s)",
							w.name, batch, f, k, gotT, gotOK, want.IterTime, want.Feasible, want.Reason)
					}
					cases++
					if gotOK {
						feasible++
					}
				}
			}
		}
	}
	if feasible == 0 || feasible == cases {
		t.Fatalf("%d of %d candidates feasible; the comparison needs both outcomes", feasible, cases)
	}
	t.Logf("%d of %d candidates feasible", feasible, cases)
}

// BenchmarkCheckmate times the Checkmate method on one Fig. 5 point,
// ResNet-1001 at batch 256: the 48-candidate segment-count sweep plus
// the winner's simulation. The profile is built outside the timer. The
// method keeps no caches across calls, so a cold run differs from a warm
// one only by process warm-up.
func BenchmarkCheckmate(b *testing.B) {
	p := prof(b, "resnet1001", 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := Run(Checkmate, p); err != nil || !r.Feasible {
			b.Fatalf("Checkmate: %v %+v", err, r)
		}
	}
}
