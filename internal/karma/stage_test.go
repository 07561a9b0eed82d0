package karma

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"karma/internal/memo"
	"karma/internal/plan"
	"karma/internal/profiler"
)

// StageStats exposes the Opt-1 stage cache's counters to the tests of
// package karma_test.
func StageStats() memo.Stats { return stages.Stats() }

// PlanDiff describes how two Plan outcomes differ, or returns "" when
// they agree: the same error string, or schedules equal in every field
// but Profile (the tests compare plans of distinct profile copies).
func PlanDiff(got *Schedule, gotErr error, want *Schedule, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, want %q", gotErr, wantErr)
		}
		return ""
	}
	switch {
	case got.Opts != want.Opts:
		return fmt.Sprintf("Opts %+v, want %+v", got.Opts, want.Opts)
	case got.Budget != want.Budget:
		return fmt.Sprintf("Budget %v, want %v", got.Budget, want.Budget)
	case got.Resident != want.Resident:
		return fmt.Sprintf("Resident %d, want %d", got.Resident, want.Resident)
	case !reflect.DeepEqual(got.Blocks, want.Blocks):
		return fmt.Sprintf("Blocks differ:\n got %+v\nwant %+v", got.Blocks, want.Blocks)
	}
	return ""
}

// PlanFresh is Plan on state no earlier search has touched: no stage
// cache, a new searcher for each stage and a new plan scratch. It is the
// reference the shared stage and the pooled searchers are held to.
func PlanFresh(p *profiler.Profile, opts Options) (*Schedule, error) {
	opts.normalize()
	st := opt1(newSearcher(), p, opts)
	if st.err != nil {
		return nil, st.err
	}
	sr := newSearcher().reset(p, st.budget, opts)
	sr.sim = new(plan.Scratch)
	return sr.refine(st)
}

// fresh returns a shallow copy of p at an address the stage cache has
// never seen: planning it runs Opt-1 from scratch.
func fresh(p *profiler.Profile) *profiler.Profile {
	q := *p
	return &q
}

// checkPair plans both recompute settings on one fresh copy of p, in
// the given order, and holds each outcome equal to PlanFresh. The
// second call must be served from the stage cache.
func checkPair(t *testing.T, label string, p *profiler.Profile, base Options, swapFirst bool) {
	t.Helper()
	settings := []bool{false, true}
	if swapFirst {
		settings = []bool{true, false}
	}
	type outcome struct {
		s   *Schedule
		err error
	}
	want := map[bool]outcome{}
	for _, disable := range settings {
		o := base
		o.DisableRecompute = disable
		s, err := PlanFresh(p, o)
		want[disable] = outcome{s, err}
	}
	shared := fresh(p)
	for i, disable := range settings {
		o := base
		o.DisableRecompute = disable
		before := StageStats().Hits
		got, gotErr := Plan(shared, o)
		if hits := StageStats().Hits - before; hits != uint64(i) {
			t.Errorf("%s call %d (DisableRecompute=%v): %d stage hits, want %d", label, i, disable, hits, i)
		}
		if d := PlanDiff(got, gotErr, want[disable].s, want[disable].err); d != "" {
			t.Errorf("%s DisableRecompute=%v as shared call %d: %s", label, disable, i, d)
		}
	}
}

// TestStageFailureIsShared pins the error-as-value rule: when Opt-1
// fails, the second setting is served the same failure from the cache
// instead of searching again, and the error string is the fresh one.
func TestStageFailureIsShared(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *profiler.Profile
		want string
	}{
		// Weights x2 exceed the device: ActivationBudget fails.
		{"weights", profileFor(t, "megatron-2.5B", 1), "exceed device memory"},
		// One 15 GiB segment beside small weights: every partition has a
		// block above the budget.
		{"partition", oneHugeBlock(), "no feasible partition"},
	} {
		for _, swapFirst := range []bool{false, true} {
			checkPair(t, fmt.Sprintf("%s/swapFirst=%v", c.name, swapFirst), c.p, Options{}, swapFirst)
		}
		if _, err := Plan(fresh(c.p), Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func oneHugeBlock() *profiler.Profile {
	p := fuzzProfile(3, 4)
	p.Blocks[2].ActBytes = 15 << 30
	p.Blocks[2].HeavyActBytes = p.Blocks[2].ActBytes
	return p
}

// TestStageConcurrentPlanners has 8 goroutines plan both settings on
// one profile at once (run it under -race): every outcome equals the
// fresh search's, whichever goroutine ran Opt-1.
func TestStageConcurrentPlanners(t *testing.T) {
	p := profileFor(t, "resnet50", 384)
	want := map[bool]*Schedule{}
	for _, disable := range []bool{false, true} {
		s, err := PlanFresh(p, Options{DisableRecompute: disable})
		if err != nil {
			t.Fatal(err)
		}
		want[disable] = s
	}
	shared := fresh(p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				disable := (g+i)%2 == 0
				got, err := Plan(shared, Options{DisableRecompute: disable})
				if d := PlanDiff(got, err, want[disable], nil); d != "" {
					t.Errorf("goroutine %d DisableRecompute=%v: %s", g, disable, d)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStageNaNOptionsUncached checks that options with a NaN never
// enter the stage cache: such a key can never hit, and could never be
// evicted from the cache's map.
func TestStageNaNOptionsUncached(t *testing.T) {
	p := fuzzProfile(5, 6)
	for _, o := range []Options{{GradScale: math.NaN()}, {Headroom: math.NaN()}} {
		before := StageStats()
		a, aErr := Plan(p, o)
		b, bErr := Plan(p, o)
		after := StageStats()
		if after.Hits != before.Hits || after.Misses != before.Misses {
			t.Errorf("%+v: stage cache consulted (%+v -> %+v)", o, before, after)
		}
		if d := PlanDiff(a, aErr, b, bErr); d != "" {
			t.Errorf("%+v: repeated plans differ: %s", o, d)
		}
	}
}

// FuzzPlanPair holds the shared Opt-1 stage equal to a fresh search on
// synthetic profiles: both recompute settings, in both orders, across
// the options the stage is keyed on (StreamWeights, GradScale,
// MaxBlocks). Seeds live in testdata/fuzz/FuzzPlanPair.
func FuzzPlanPair(f *testing.F) {
	f.Add(int64(1), uint8(8), false, uint8(0), uint8(0), false)
	f.Add(int64(42), uint8(16), true, uint8(16), uint8(5), true)
	f.Add(int64(7), uint8(24), true, uint8(64), uint8(2), false)
	f.Add(int64(99), uint8(1), false, uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8, stream bool, gsRaw, maxRaw uint8, swapFirst bool) {
		p := fuzzProfile(seed, int(kRaw%24)+1)
		o := Options{
			StreamWeights: stream,
			GradScale:     float64(gsRaw) / 64, // 0 means unsharded
			MaxBlocks:     int(maxRaw % 40),    // 0 means the default
		}
		checkPair(t, "fuzz", p, o, swapFirst)
	})
}

// TestStageLadderDistinct checks that no two partitions of an Opt-1
// stage have the same block count: a repeated rung would only make
// Opt-2 simulate an identical cut set again. The block counts cover
// ladders whose maxK/4 or maxK/2 meets a fixed rung (24 blocks: 6; the
// default maxK of 32: 8; maxK 16: 8 and 4).
func TestStageLadderDistinct(t *testing.T) {
	for _, c := range []struct {
		blocks, maxBlocks int
	}{{24, 0}, {40, 0}, {40, 16}, {40, 12}, {12, 0}, {9, 0}} {
		for seed := int64(1); seed <= 4; seed++ {
			o := Options{MaxBlocks: c.maxBlocks}
			o.normalize()
			st := opt1(newSearcher(), fuzzProfile(seed, c.blocks), o)
			if st.err != nil {
				t.Fatalf("%d blocks, MaxBlocks %d, seed %d: %v", c.blocks, c.maxBlocks, seed, st.err)
			}
			ks := []int{len(st.best.cuts) + 1}
			for _, cs := range st.ladder {
				k := len(cs.cuts) + 1
				if slices.Contains(ks, k) {
					t.Errorf("%d blocks, MaxBlocks %d, seed %d: block count %d again after %v (best first)",
						c.blocks, c.maxBlocks, seed, k, ks)
				}
				ks = append(ks, k)
			}
		}
	}
}
