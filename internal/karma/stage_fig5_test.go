package karma_test

import (
	"testing"

	"karma/internal/experiments"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/profiler"
)

// TestStageMatchesFreshSearchFig5 holds the shared Opt-1 stage and the
// pooled searchers to a fresh search on every Fig. 5 point (the six
// models over their batch grids): each point is planned as "KARMA" and
// "KARMA w/recompute" on one profile, in both orders, and every outcome
// must equal PlanFresh, which uses neither the stage cache nor a pooled
// searcher or scratch — the same schedule in every field but Profile, or
// the same error string. The second call of each pair must be a stage
// hit.
func TestStageMatchesFreshSearchFig5(t *testing.T) {
	fresh := func(p *profiler.Profile) *profiler.Profile {
		q := *p
		return &q
	}
	type outcome struct {
		s   *karma.Schedule
		err error
	}
	points := 0
	for _, w := range experiments.Fig5Workloads() {
		for _, b := range w.Batches {
			p, err := experiments.ProfileWorkload(w, hw.ABCINode(), b)
			if err != nil {
				t.Fatalf("%s/%d: %v", w.Model, b, err)
			}
			want := map[bool]outcome{}
			for _, disable := range []bool{false, true} {
				s, err := karma.PlanFresh(p, karma.Options{DisableRecompute: disable})
				want[disable] = outcome{s, err}
			}
			for _, order := range [][]bool{{true, false}, {false, true}} {
				shared := fresh(p)
				for i, disable := range order {
					before := karma.StageStats().Hits
					got, gotErr := karma.Plan(shared, karma.Options{DisableRecompute: disable})
					if hits := karma.StageStats().Hits - before; hits != uint64(i) {
						t.Errorf("%s/%d order %v call %d: %d stage hits, want %d", w.Model, b, order, i, hits, i)
					}
					if d := karma.PlanDiff(got, gotErr, want[disable].s, want[disable].err); d != "" {
						t.Errorf("%s/%d DisableRecompute=%v as shared call %d: %s", w.Model, b, disable, i, d)
					}
				}
			}
			points++
		}
	}
	if points != 32 {
		t.Errorf("covered %d Fig. 5 points, want 32", points)
	}
}
