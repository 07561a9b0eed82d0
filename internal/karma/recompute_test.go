package karma

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"karma/internal/profiler"
	"karma/internal/unit"
)

// markRecomputeRescan is the rescanning rule markRecompute tracks
// incrementally: after every flip, the largest run of the whole
// schedule decides whether the flip stays.
func markRecomputeRescan(sr *searcher, s *Schedule, prefixBudget unit.Bytes) {
	var cands []recomputeCand
	for i := range s.Blocks {
		b := &s.Blocks[i]
		if b.Policy != Swap || i == 0 || i == len(s.Blocks)-1 {
			continue
		}
		move := unit.TransferTime(b.Cost.HeavyActBytes, sr.bw, sr.lat)
		extraReplay := b.Cost.FwdTime - b.Cost.CheapFwdTime
		if benefit := move - extraReplay; benefit > 0 {
			cands = append(cands, recomputeCand{idx: i, benefit: benefit})
		}
	}
	slices.SortFunc(cands, func(a, b recomputeCand) int {
		if a.benefit != b.benefit {
			return cmp.Compare(b.benefit, a.benefit)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	runCap := prefixBudget / 2
	for _, c := range cands {
		s.Blocks[c.idx].Policy = Recompute
		if maxRunBytes(s.Blocks) > runCap {
			s.Blocks[c.idx].Policy = Swap
		}
	}
}

// randomRecomputeSchedule draws a schedule of swapped, kept and already
// recomputed (some checkpointed) blocks with random costs, the shapes
// markRecompute meets and a few it never does (recompute runs before the
// first flip, streamed weight payloads).
func randomRecomputeSchedule(r *rand.Rand) *Schedule {
	k := r.Intn(24) + 1
	s := &Schedule{Blocks: make([]Block, k)}
	for i := range s.Blocks {
		act := unit.Bytes(r.Int63n(256 * int64(unit.MiB)))
		b := Block{
			Cost: profiler.Block{
				ActBytes:      act,
				HeavyActBytes: unit.Bytes(r.Int63n(int64(act) + 1)),
				FwdTime:       unit.Seconds(float64(r.Intn(1000)) * 1e-5),
				CheapFwdTime:  unit.Seconds(float64(r.Intn(300)) * 1e-5),
			},
			Policy: Swap,
		}
		switch r.Intn(8) {
		case 0:
			b.Policy = Keep
		case 1:
			b.Policy = Recompute
			b.Ckpt = r.Intn(2) == 0
		}
		if r.Intn(4) == 0 {
			b.WBytes = unit.Bytes(r.Int63n(32 * int64(unit.MiB)))
		}
		s.Blocks[i] = b
	}
	return s
}

// TestMarkRecomputeMatchesRescan: on seeded random schedules and
// budgets, checking only the run through each flipped block marks
// exactly the blocks the whole-schedule rescan marks.
func TestMarkRecomputeMatchesRescan(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sr := &searcher{bw: 12 * unit.GBps, lat: 5e-6}
	for trial := 0; trial < 5000; trial++ {
		want := randomRecomputeSchedule(r)
		got := &Schedule{Blocks: slices.Clone(want.Blocks)}
		budget := unit.Bytes(r.Int63n(2 * int64(unit.GiB)))
		markRecomputeRescan(sr, want, budget)
		sr.markRecompute(got, budget)
		for i := range want.Blocks {
			if got.Blocks[i].Policy != want.Blocks[i].Policy {
				t.Fatalf("trial %d, budget %v: block %d policy %v, rescan gives %v", trial, budget, i,
					got.Blocks[i].Policy, want.Blocks[i].Policy)
			}
		}
	}
}
