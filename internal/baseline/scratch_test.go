package baseline

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"karma/internal/profiler"
	"karma/internal/race"
)

// runAll runs every Fig. 5 method on p, in Methods() order.
func runAll(t *testing.T, p *profiler.Profile) []*Result {
	t.Helper()
	var out []*Result
	for _, m := range Methods() {
		out = append(out, run(t, m, p))
	}
	return out
}

// TestBaselineResultsDoNotAliasScratch pins the pooled scratch's
// aliasing rule at its one consumer: every method lowers, compiles and
// simulates on a shared plan.Scratch, so a Result that kept a view into
// it would be rewritten by the next run. Each result is copied as soon
// as it returns; running every method on a larger profile must leave
// them all as they were. The larger profile runs first as well, so the
// pooled arenas are already grown and every later run reuses them in
// place rather than in fresh arrays.
func TestBaselineResultsDoNotAliasScratch(t *testing.T) {
	big := prof(t, "resnet1001", 64)
	runAll(t, big)
	small := prof(t, "resnet50", 128)
	var first, want []*Result
	for _, m := range Methods() {
		r := run(t, m, small)
		if !r.Feasible || len(r.BwdTrace) == 0 {
			t.Fatalf("%s: want a feasible result with a trace, got %+v", r.Method, r)
		}
		c := *r
		c.BwdTrace = slices.Clone(r.BwdTrace)
		first, want = append(first, r), append(want, &c)
	}
	runAll(t, big)
	if !reflect.DeepEqual(first, want) {
		t.Error("results changed after later runs reused the pooled scratch")
	}
}

// TestBaselineConcurrentRuns runs every method from 8 goroutines at
// once, on two profiles of different sizes so pooled scratches trade
// shapes; each result must equal the serial run's.
func TestBaselineConcurrentRuns(t *testing.T) {
	ps := []*profiler.Profile{prof(t, "resnet50", 256), prof(t, "resnet200", 16)}
	serial := make([][]*Result, len(ps))
	for i, p := range ps {
		serial[i] = runAll(t, p)
	}
	const workers = 8
	got := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, m := range Methods() {
				r, err := Run(m, ps[w%len(ps)])
				if err != nil {
					t.Errorf("worker %d: Run(%s): %v", w, m, err)
					return
				}
				got[w] = append(got[w], r)
			}
		}(w)
	}
	wg.Wait()
	for w, rs := range got {
		if want := serial[w%len(ps)]; !reflect.DeepEqual(rs, want) {
			t.Errorf("worker %d: concurrent results differ from the serial run", w)
		}
	}
}

// TestBaselineRunAllocs pins the warm allocation count of the methods
// that lower straight into the pooled scratch: only the Result, its
// BwdTrace and the plan name are new per run (SuperNeurons adds its two
// per-block split buffers).
func TestBaselineRunAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := prof(t, "resnet50", 128)
	for _, c := range []struct {
		m    Method
		want float64
	}{{InCore, 3}, {VDNNPP, 3}, {SuperNeurons, 5}} {
		run(t, c.m, p) // warm: grows the pooled scratch to this plan
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Run(c.m, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.want {
			t.Errorf("%s: warm Run allocated %.0f objects, want at most %.0f", c.m, allocs, c.want)
		}
	}
}

// BenchmarkBaselineRun times each Fig. 5 method on ResNet-1001 at batch
// 64, the grid's largest block count at a batch every method can run.
// The profile is built outside the timer. The KARMA methods keep their
// Opt-1 stage cached per profile, so after the first iteration they time
// Opt-2 and the winner's simulation; the other methods keep no caches.
func BenchmarkBaselineRun(b *testing.B) {
	p := prof(b, "resnet1001", 64)
	for _, m := range Methods() {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r, err := Run(m, p); err != nil || !r.Feasible {
					b.Fatalf("%s: %v %+v", m, err, r)
				}
			}
		})
	}
}

// TestPooledScratchSurvivesGC pins what the free lists are for: after
// two garbage collections, which empty a sync.Pool, every Fig. 5
// method still runs on the arenas an earlier run grew. Each measured
// run starts with the two collections, so a pool that lost its
// scratches would regrow every builder, compiler and runner arena on
// each run and blow the ceilings. The ceilings are the warm counts: as
// in TestBaselineRunAllocs for the methods it covers; Checkmate's sweep
// keeps per-run state of its own; the KARMA methods add the winning
// schedule, its blocks and the plan names.
func TestPooledScratchSurvivesGC(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := prof(t, "resnet50", 128)
	ceiling := map[Method]float64{
		InCore: 3, VDNNPP: 3, SuperNeurons: 5, Checkmate: 41, KARMA: 7, KARMARecompute: 7,
	}
	for _, m := range Methods() {
		run(t, m, p) // warm: grows the pooled scratches to this profile
		allocs := testing.AllocsPerRun(10, func() {
			runtime.GC()
			runtime.GC()
			if _, err := Run(m, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling[m] {
			t.Errorf("%s: Run after two GCs allocated %.0f objects, want at most %.0f", m, allocs, ceiling[m])
		}
	}
}
