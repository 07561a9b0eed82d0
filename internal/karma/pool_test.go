package karma

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/race"
)

// TestPlanWinnerCostsAreMergeCosts pins Block.Cost's contract: every
// block of a winning schedule carries exactly the numeric merge of its
// range, with empty segment lists, whether the search ran on a fresh
// searcher or a pooled one.
func TestPlanWinnerCostsAreMergeCosts(t *testing.T) {
	for _, c := range []struct {
		model string
		batch int
		opts  Options
	}{
		{"resnet50", 384, Options{}},
		{"resnet50", 384, Options{DisableRecompute: true}},
		{"resnet200", 16, Options{StreamWeights: true}},
		{"resnet1001", 64, Options{}},
	} {
		p := profileFor(t, c.model, c.batch)
		ref, err := PlanFresh(p, c.opts)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.model, c.batch, err)
		}
		pooled, err := Plan(p, c.opts)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.model, c.batch, err)
		}
		for _, s := range []*Schedule{ref, pooled} {
			for i := range s.Blocks {
				b := &s.Blocks[i]
				if want := p.MergeCosts(b.Range[0], b.Range[1]); !reflect.DeepEqual(b.Cost, want) {
					t.Errorf("%s/%d %+v block %d %v: Cost %+v, want MergeCosts %+v", c.model, c.batch, c.opts, i, b.Range, b.Cost, want)
				}
			}
		}
	}
}

// snapshot returns a copy of s that shares no memory a later search
// could reuse.
func snapshot(s *Schedule) *Schedule {
	c := *s
	c.Blocks = slices.Clone(s.Blocks)
	return &c
}

// TestPlanDoesNotAliasPooledSearcher holds the free list's aliasing
// rule: a returned schedule is the caller's. Planning a larger profile
// afterwards, on the same pooled searchers and scratch (grown first, so
// every later search reuses their arenas in place), must leave it as
// it was.
func TestPlanDoesNotAliasPooledSearcher(t *testing.T) {
	small := profileFor(t, "resnet50", 256)
	big := profileFor(t, "resnet1001", 64)
	for _, disable := range []bool{false, true} {
		if _, err := Plan(fresh(big), Options{DisableRecompute: disable}); err != nil {
			t.Fatal(err)
		}
	}
	var first, want []*Schedule
	for _, disable := range []bool{false, true} {
		s, err := Plan(small, Options{DisableRecompute: disable})
		if err != nil {
			t.Fatal(err)
		}
		first, want = append(first, s), append(want, snapshot(s))
	}
	for _, disable := range []bool{false, true} {
		if _, err := Plan(fresh(big), Options{DisableRecompute: disable}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], want[i]) {
			t.Errorf("schedule %d changed after a larger plan reused the pooled searchers", i)
		}
	}
}

// TestPlanConcurrentPooledSearchers runs Plan from 8 goroutines at once
// (run it under -race), each planning both recompute settings on a
// profile all of them share and on a copy of its own (so Opt-1 searches
// run concurrently on pooled searchers too), over profiles of different
// sizes. Every outcome must equal the serial fresh search's.
func TestPlanConcurrentPooledSearchers(t *testing.T) {
	ps := []*profiler.Profile{profileFor(t, "resnet50", 384), profileFor(t, "resnet200", 16), profileFor(t, "vgg16", 96)}
	want := make([]map[bool]*Schedule, len(ps))
	for i, p := range ps {
		want[i] = map[bool]*Schedule{}
		for _, disable := range []bool{false, true} {
			s, err := PlanFresh(p, Options{DisableRecompute: disable})
			if err != nil {
				t.Fatal(err)
			}
			want[i][disable] = s
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w % len(ps)
			for _, c := range []struct {
				name string
				p    *profiler.Profile
			}{{"shared", ps[i]}, {"own", fresh(ps[i])}} {
				for _, disable := range []bool{w%2 == 0, w%2 != 0} {
					got, err := Plan(c.p, Options{DisableRecompute: disable})
					if d := PlanDiff(got, err, want[i][disable], nil); d != "" {
						t.Errorf("worker %d %s profile %d DisableRecompute=%v: %s", w, c.name, i, disable, d)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPlanPairSurvivesGC is TestPooledScratchSurvivesGC (baseline) for
// the planner alone: a Fig. 5 pair on a cached Opt-1 stage, after two
// garbage collections, runs Opt-2 on pooled searchers and a pooled
// scratch that kept their arenas. A pool that lost them would regrow
// the candidate schedules, the search buffers and every plan arena on
// each pair. The ceiling is the count measured with the pools in place:
// per call, the winning schedule, its blocks and the plan name, plus
// the errors of candidates the simulator rejects. Without the
// collections the pair allocates 42; the other 16 come from state
// outside these free lists, such as fmt's own sync.Pool.
func TestPlanPairSurvivesGC(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := profileFor(t, "resnet50", 384)
	pair := func() {
		for _, disable := range []bool{false, true} {
			if _, err := Plan(p, Options{DisableRecompute: disable}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pair() // warm: caches the stage, grows the pooled searchers and scratch
	allocs := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		pair()
	})
	if allocs > 58 {
		t.Errorf("Plan pair after two GCs allocated %.0f objects, want at most 58", allocs)
	}
}

// TestSearcherIdleBoundsRetention checks what a pooled searcher keeps:
// no reference to the search's profile (neither its own nor its
// recycled schedules'), empty memos, and nothing at all once its memos
// outgrew maxPooledMemo.
func TestSearcherIdleBoundsRetention(t *testing.T) {
	p := profileFor(t, "resnet50", 384)
	o := Options{}
	o.normalize()
	st, err := partition(p, o)
	if err != nil || st.err != nil {
		t.Fatal(err, st.err)
	}

	sr := newSearcher()
	st2 := opt1(sr, p, o)
	if st2.err != nil {
		t.Fatal(st2.err)
	}
	sr.reset(p, st.budget, o)
	sr.sim = new(plan.Scratch)
	if _, err := sr.refine(st); err != nil {
		t.Fatal(err)
	}
	if len(sr.merged) == 0 || len(sr.free) == 0 {
		t.Fatalf("search left %d merges and %d recycled schedules, want some of each", len(sr.merged), len(sr.free))
	}
	if !sr.idle() {
		t.Fatal("a searcher within the memo bound is not poolable")
	}
	if sr.p != nil || sr.sim != nil || len(sr.merged) != 0 || len(sr.evalMemo) != 0 || len(sr.mergeArena) != 0 {
		t.Errorf("idle searcher kept search state: profile %v, sim %v, %d merges, %d objectives, %d arena blocks",
			sr.p != nil, sr.sim != nil, len(sr.merged), len(sr.evalMemo), len(sr.mergeArena))
	}
	for i, s := range sr.free {
		if s.Profile != nil {
			t.Errorf("recycled schedule %d still references the profile", i)
		}
	}
	for i, b := range sr.eblocks[:cap(sr.eblocks)] {
		if b != nil {
			t.Errorf("estimate scratch slot %d still points at a merged block", i)
		}
	}

	for i := 0; i <= maxPooledMemo; i++ {
		sr.evalMemo[fmt.Sprint(i)] = 0
	}
	if sr.idle() {
		t.Error("a searcher whose memo outgrew maxPooledMemo is poolable")
	}
}
