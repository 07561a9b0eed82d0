package karma

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"karma/internal/hw"
	"karma/internal/memo"
	"karma/internal/occupancy"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/solve"
	"karma/internal/unit"
)

// Plan runs the two-tier optimization of Fig. 4 and returns a complete
// schedule: Opt-1 groups profiled segments into blocks maximizing
// occupancy under the memory-capacity constraint; Opt-2 flips blocks from
// swapping to recomputation where that reduces pipeline stalls
// (constraint 10.1).
//
// Only Opt-2 reads DisableRecompute, so the Opt-1 stage is shared: it is
// computed once per (profile, options other than DisableRecompute) and
// kept in a small package-level cache (see stages), and planning a
// profile as both "KARMA" and "KARMA w/recompute" (Fig. 5) runs the
// partition search once. The result is the same as a fresh search.
func Plan(p *profiler.Profile, opts Options) (*Schedule, error) {
	opts.normalize()
	st, err := partition(p, opts)
	if err != nil {
		return nil, err
	}
	if st.err != nil {
		return nil, st.err
	}
	sr := searchers.Get().reset(p, st.budget, opts)
	defer putSearcher(sr)
	sr.sim = plan.GetScratch()
	defer plan.PutScratch(sr.sim)
	return sr.refine(st)
}

// stageLimit bounds the Opt-1 stages kept. Fig. 5 plans one profile in
// both recompute settings back to back, so one entry shares each search;
// the second lets two concurrent planners interleave. Each entry keeps
// its profile alive, so the bound stays small.
const stageLimit = 2

// stages holds the Opt-1 stage per (profile, normalized options with
// DisableRecompute cleared). The key's profile pointer keeps the profile
// alive while its entry is cached, so no later profile can take its
// address and hit a stale stage; profiles are never mutated once
// profiler.New returns (see profiler.Profile).
var stages = memo.New[stageKey, *stage](stageLimit)

type stageKey struct {
	p    *profiler.Profile
	opts Options
}

// stage is the outcome of Opt-1 for one profile: the activation budget,
// the refined partition, and the Opt-2 ladder's partitions in the order
// Opt-2 tries them. It is immutable once published, because concurrent
// planners read the same entry. A failed search is kept as a value in
// err: the cache never retains errors, and the failure is as
// deterministic as a partition.
type stage struct {
	budget unit.Bytes
	best   cutSet
	ladder []cutSet
	err    error
}

// cutSet is one partition Opt-2 refines: its cut positions and the
// numeric merge of each of its blocks, so Opt-2 never merges.
type cutSet struct {
	cuts  []int
	costs []profiler.Block
}

// cutSetOf returns the partition at cuts with its blocks' merged costs,
// in slices of its own.
func (sr *searcher) cutSetOf(cuts []int) cutSet {
	cs := cutSet{cuts: slices.Clone(cuts), costs: make([]profiler.Block, len(cuts)+1)}
	start := 0
	for i := range cs.costs {
		end := len(sr.p.Blocks)
		if i < len(cuts) {
			end = cuts[i]
		}
		cs.costs[i] = *sr.mergeCosts(start, end)
		start = end
	}
	return cs
}

// partition returns the Opt-1 stage of (p, opts), from stages when it
// is there. The error is not the search's (that lives in the stage) but
// a panic of a concurrent caller's search this call waited on.
func partition(p *profiler.Profile, opts Options) (*stage, error) {
	opts.DisableRecompute = false
	return stages.Do(stageKey{p: p, opts: opts}, func() (*stage, error) {
		sr := searchers.Get()
		defer putSearcher(sr)
		return opt1(sr, p, opts), nil
	})
}

// opt1 runs the Opt-1 search on sr: balanced partitions enumerated over
// K and refined by the selected solver, plus the Opt-2 ladder's cut sets.
func opt1(sr *searcher, p *profiler.Profile, opts Options) *stage {
	budget, err := ActivationBudget(p, opts)
	if err != nil {
		return &stage{err: err}
	}
	n := len(p.Blocks)
	if n == 0 {
		return &stage{err: fmt.Errorf("karma: profile has no blocks")}
	}
	sr.reset(p, budget, opts)

	weights := make([]float64, n)
	for i, b := range p.Blocks {
		// Partition on payload bytes with a floor so zero-activation
		// segments still carry positional weight.
		w := float64(b.ActBytes)
		if opts.StreamWeights {
			w += (1 + opts.GradScale) * float64(b.WeightBytes)
		}
		weights[i] = w + 1
	}
	// One Partitioner serves every k below: the greedy-count spans it
	// records while bisecting for one k answer most probes of the others,
	// across the Opt-1 enumeration and the Opt-2 ladder (cut positions
	// are bit-identical to per-k BalancedPartition calls).
	pt, err := solve.NewPartitioner(weights)
	if err != nil {
		return &stage{err: err}
	}
	eval := sr.eval

	// Opt-1: enumerate balanced partitions over K, then refine.
	maxK := opts.MaxBlocks
	if maxK > n {
		maxK = n
	}
	var bestCuts []int
	bestV := math.Inf(1)
	for k := 1; k <= maxK; k++ {
		cuts, err := pt.Cuts(k)
		if err != nil {
			continue
		}
		if v := eval(cuts); v < bestV {
			bestV, bestCuts = v, cuts
		}
	}
	if math.IsInf(bestV, 1) {
		return &stage{err: fmt.Errorf("karma: no feasible partition: a single segment exceeds the activation budget %v", budget)}
	}
	switch opts.Solver {
	case SolverBalanced:
		bestCuts = solve.HillClimb(bestCuts, n, eval, 6)
	case SolverACO:
		if cuts, err := solve.ACOBoundaries(n, len(bestCuts)+1, eval, opts.Seed); err == nil && eval(cuts) < eval(bestCuts) {
			bestCuts = cuts
		}
	default:
		return &stage{err: fmt.Errorf("karma: unknown solver %d", int(opts.Solver))}
	}

	// The granularities Opt-2 tries beside the refined partition. A
	// block count tried before is skipped: its cut set would be the
	// same, and selection keeps only a strict improvement.
	st := &stage{budget: budget, best: sr.cutSetOf(bestCuts)}
	var cuts []int
	rungs := [...]int{maxK, maxK * 3 / 4, maxK / 2, maxK / 4, 8, 6, 4, 3, 2}
	for i, k := range rungs {
		if k < 2 || k > n || k == len(bestCuts)+1 || slices.Contains(rungs[:i], k) {
			continue
		}
		if cuts, err = pt.AppendCuts(cuts[:0], k); err == nil {
			st.ladder = append(st.ladder, sr.cutSetOf(cuts))
		}
	}
	return st
}

// refine runs Opt-2 over a stage: it jointly searches the residency
// depth and the recompute interleave over a ladder of blocking
// granularities. Keeping the maximal resident suffix is not always
// optimal — shrinking it frees budget for recompute checkpoints, trading
// swap traffic for redundant compute (constraint 10.1) — and
// recompute-heavy policies prefer different granularities than
// swap-heavy ones, so the final selection simulates candidates across
// both dimensions. The incumbent's time threads through as a bound:
// candidates whose makespan lower bound already exceeds it are pruned
// unsimulated.
func (sr *searcher) refine(st *stage) (*Schedule, error) {
	s, t, err := sr.bestPolicy(&st.best, unit.Seconds(math.Inf(1)))
	for i := range st.ladder {
		bound := unit.Seconds(math.Inf(1))
		if err == nil {
			bound = t
		}
		if s2, t2, err2 := sr.bestPolicy(&st.ladder[i], bound); err2 == nil && (err != nil || t2 < t) {
			if s != nil {
				sr.recycle(s)
			}
			s, t, err = s2, t2, err2
		}
	}
	if err == errNoPolicy {
		return nil, fmt.Errorf("karma: no simulable policy for budget %v", sr.budget)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// searcher carries the reusable state of one search stage. Opt-1 uses
// the merged block costs and partition objective values memoized across
// candidates and the scratch buffers for the analytic estimate; Opt-2
// uses the candidate schedules losing candidates hand back and a pooled
// plan.Scratch. Zero steady-state allocation is the point: the Opt-1/Opt-2
// search replays these paths thousands of times per plan.
//
// Searchers are reused across stages and calls through one free list
// (searchers and putSearcher), so the memos, arenas and
// recycled schedules keep their capacity from one search to the next.
// Nothing a search returns aliases its searcher: a stage's cut sets are
// copies (cutSetOf), and refine's winner is never in the free list.
type searcher struct {
	p      *profiler.Profile
	opts   Options
	budget unit.Bytes
	bw     unit.BytesPerSec
	lat    unit.Seconds
	name   string // plan name of every candidate build

	merged map[[2]int]*profiler.Block // MergeCosts per block range
	// mergeArena backs the merged blocks. A full chunk is replaced, never
	// regrown, so the pointers handed out stay put.
	mergeArena []profiler.Block
	evalMemo   map[string]float64 // estimate per encoded cut set
	evalKey    []byte

	// estimate scratch
	eblocks  []*profiler.Block
	payloads []unit.Bytes
	wbytes   []unit.Bytes
	seq      []occupancy.Block
	arrive   []unit.Seconds

	// bestPolicy / scheduleFromCuts scratch (distinct: bestPolicy holds
	// its payload view across scheduleFromCuts calls)
	bpay []unit.Bytes
	spay []unit.Bytes
	// markRecompute scratch
	rcands []recomputeCand
	// free holds candidate schedules no longer referenced; scheduleFromCuts
	// reuses them and their Blocks.
	free []*Schedule

	sim *plan.Scratch // Opt-2 only; a candidate's makespan is all that leaves it
}

// searchers is the free list of idle searchers (see memo.Pool: it keeps
// at most GOMAXPROCS of them, and a garbage collection keeps them).
var searchers = memo.NewPool(newSearcher)

func newSearcher() *searcher {
	return &searcher{merged: map[[2]int]*profiler.Block{}, evalMemo: map[string]float64{}}
}

// maxPooledMemo bounds the entries of a searcher's merge and objective
// memos for it to go back to the free list. Clearing a map costs in
// proportion to the capacity it once grew to, so a searcher that ran a
// larger search than this is dropped rather than making every later
// small search pay for it; the bound also caps the merge arena a pooled
// searcher keeps (under 1.5 MB at 176 B per merged block). The largest
// Fig. 5 search (ResNet-1001 at batch 320, 673 profiled blocks) fills
// 943 merge and 494 objective entries and keeps a 170 KB arena.
const maxPooledMemo = 4096

// reset points an empty searcher at one search.
func (sr *searcher) reset(p *profiler.Profile, budget unit.Bytes, opts Options) *searcher {
	sr.p, sr.opts, sr.budget = p, opts, budget
	sr.bw = hw.SwapThroughput(p.Node)
	sr.lat = p.Node.Link.Latency
	sr.name = "karma/" + p.Graph.Name()
	return sr
}

// putSearcher hands sr back to the free list once its search is over,
// unless idle finds it too large to keep.
func putSearcher(sr *searcher) {
	if sr.idle() {
		searchers.Put(sr)
	}
}

// idle reports whether sr may be pooled: false when its memos outgrew
// maxPooledMemo. A poolable searcher first drops every reference to the
// search's profile and merged blocks, so it keeps only its own buffers
// alive.
func (sr *searcher) idle() bool {
	if len(sr.merged) > maxPooledMemo || len(sr.evalMemo) > maxPooledMemo {
		return false
	}
	sr.p, sr.sim = nil, nil
	clear(sr.merged)
	clear(sr.evalMemo)
	sr.mergeArena = sr.mergeArena[:0]
	clear(sr.eblocks[:cap(sr.eblocks)]) // may point into older arena chunks
	for _, s := range sr.free {
		s.Profile = nil
	}
	return true
}

// mergeCosts returns the numeric merge of blocks [i, j), cached — the
// same ranges recur across every candidate cut set sharing a boundary.
// The block is shared: callers must not modify it.
func (sr *searcher) mergeCosts(i, j int) *profiler.Block {
	key := [2]int{i, j}
	if b, ok := sr.merged[key]; ok {
		return b
	}
	if len(sr.mergeArena) == cap(sr.mergeArena) {
		sr.mergeArena = make([]profiler.Block, 0, 2*cap(sr.mergeArena)+32)
	}
	sr.mergeArena = append(sr.mergeArena, sr.p.MergeCosts(i, j))
	b := &sr.mergeArena[len(sr.mergeArena)-1]
	sr.merged[key] = b
	return b
}

// eval is the memoized Opt-1 objective over cut positions.
func (sr *searcher) eval(cuts []int) float64 {
	k := sr.evalKey[:0]
	for _, c := range cuts {
		k = binary.AppendVarint(k, int64(c))
	}
	sr.evalKey = k
	if v, ok := sr.evalMemo[string(k)]; ok {
		return v
	}
	v := float64(sr.estimate(cuts))
	sr.evalMemo[string(k)] = v
	return v
}

// estimate is the fast analytic objective for Opt-1: the estimated
// iteration makespan for a candidate partition, assuming every
// non-resident block swaps (recompute refinement happens later). Under
// StreamWeights the payloads and transfers include the weight and
// gradient share travelling with each block (§III-G). Infeasible
// partitions return +Inf.
func (sr *searcher) estimate(cuts []int) unit.Seconds {
	n := len(sr.p.Blocks)
	blocks := sr.eblocks[:0]
	payloads := sr.payloads[:0]
	wbytes := sr.wbytes[:0]
	start := 0
	for i := 0; i <= len(cuts); i++ {
		end := n
		if i < len(cuts) {
			end = cuts[i]
		}
		b := sr.mergeCosts(start, end)
		start = end
		blocks = append(blocks, b)
		payload := b.ActBytes
		var wb unit.Bytes
		if sr.opts.StreamWeights {
			wb = b.WeightBytes
			payload += wb + unit.Bytes(math.Ceil(sr.opts.GradScale*float64(wb)))
		}
		payloads = append(payloads, payload)
		wbytes = append(wbytes, wb)
	}
	sr.eblocks, sr.payloads, sr.wbytes = blocks, payloads, wbytes
	for _, pl := range payloads {
		if pl > sr.budget {
			return unit.Seconds(math.Inf(1))
		}
	}
	r := occupancy.ResidentSuffix(payloads, sr.budget)

	// Forward phase: compute serializes; swap-outs of the non-resident
	// prefix (heavy payloads only) overlap on the D2H stream, weight
	// prefetches of the streamed prefix overlap on the H2D stream.
	var fwd, sout, sinW unit.Seconds
	for i, b := range blocks {
		fwd += b.FwdTime
		if i < r {
			sout += unit.TransferTime(b.HeavyActBytes, sr.bw, 0)
			sinW += unit.TransferTime(wbytes[i], sr.bw, 0)
		}
	}
	fwdPhase := fwd
	if sout > fwdPhase {
		fwdPhase = sout
	}
	if sinW > fwdPhase {
		fwdPhase = sinW
	}

	// Backward phase under the capacity-based policy (Eqs. 3-8):
	// resident tail processes stall-free while the swapped prefix streams
	// in FIFO (heavy activations plus streamed weights), each swapped
	// block adding its cheap local recompute.
	seq := sr.seq[:0]
	for i := len(blocks) - 1; i >= 0; i-- {
		ob := occupancy.Block{Proc: blocks[i].BwdTime}
		if i < r {
			ob.Proc += blocks[i].CheapFwdTime
			ob.Bytes = blocks[i].HeavyActBytes + wbytes[i] + 1 // +1: keep transfer ordering strict
		}
		seq = append(seq, ob)
	}
	sr.seq = seq
	if cap(sr.arrive) < len(seq) {
		sr.arrive = make([]unit.Seconds, len(seq))
	}
	est := occupancy.BackwardScratch(seq, sr.bw, sr.arrive[:len(seq)])
	return fwdPhase + est.Total
}

// iterTime simulates one candidate on the pooled scratch, returning
// only the makespan. Error values match Simulate's exactly (the search
// keeps the first failure).
func (sr *searcher) iterTime(cand *Schedule) (unit.Seconds, error) {
	pl, err := buildPlan(&sr.sim.Builder, sr.name, cand)
	if err != nil {
		return 0, err
	}
	_, tl, err := sr.sim.Simulate(pl, cand.Budget)
	if err != nil {
		return 0, err
	}
	return tl.Makespan, nil
}

// lowerBound returns a provable lower bound on the simulated makespan of
// the schedule's plan: the busiest stream's total op duration, summed
// from the same per-block costs BuildPlan emits (compute: forwards,
// backwards, cheap remats of swapped blocks and full replays of
// recomputed ones; H2D: weight prefetches and backward swap-ins; D2H:
// swap-outs and gradient drains). Every op runs exactly once on its FIFO
// stream, so the makespan can never undercut any stream's busy total.
func (sr *searcher) lowerBound(s *Schedule) float64 {
	k := len(s.Blocks)
	var compute, h2d, d2h unit.Seconds
	for i := range s.Blocks {
		b := &s.Blocks[i]
		compute += b.Cost.FwdTime + b.Cost.BwdTime
		switch b.Policy {
		case Swap:
			// The last block never actually swaps: no swap-out overlaps a
			// later forward, no swap-in or remat precedes its backward.
			if i < k-1 {
				compute += b.Cost.CheapFwdTime
				d2h += unit.TransferTime(b.Cost.HeavyActBytes, sr.bw, sr.lat)
				h2d += unit.TransferTime(b.Cost.HeavyActBytes+b.WBytes, sr.bw, sr.lat)
			}
		case Recompute:
			compute += b.Cost.FwdTime
		}
		if b.Policy != Keep && b.WBytes > 0 {
			h2d += unit.TransferTime(b.WBytes, sr.bw, sr.lat) // forward prefetch
			if b.Policy == Recompute {
				h2d += unit.TransferTime(b.WBytes, sr.bw, sr.lat) // backward refetch
			}
			d2h += unit.TransferTime(b.GBytes, sr.bw, sr.lat) // gradient drain
		}
	}
	lb := compute
	if h2d > lb {
		lb = h2d
	}
	if d2h > lb {
		lb = d2h
	}
	return float64(lb)
}

// errNoPolicy is bestPolicy's verdict that no candidate beat its bound
// without a simulation error. A ladder rung that loses to the incumbent
// ends this way and refine drops it, so the error is formatted (with the
// budget) only where refine returns it.
var errNoPolicy = errors.New("karma: no simulable policy")

// bestPolicy enumerates resident-suffix depths; for each depth it applies
// the greedy constraint-10.1 recompute marking to the non-resident
// prefix, then picks the schedule with the shortest simulated iteration.
// bound seeds the incumbent time (+Inf for an unconstrained search):
// only candidates strictly beating it are returned, and candidates whose
// makespan lower bound cannot beat it are dominated — skipped without
// simulating, which cannot change the winner because selection is by
// strict improvement.
func (sr *searcher) bestPolicy(cs *cutSet, bound unit.Seconds) (*Schedule, unit.Seconds, error) {
	base := sr.scheduleFromCuts(cs)
	k := len(base.Blocks)
	payloads := sr.bpay[:0]
	for i := range base.Blocks {
		payloads = append(payloads, base.Blocks[i].Payload())
	}
	sr.bpay = payloads
	maxResident := base.Resident
	sr.recycle(base)

	var best *Schedule
	bestTime := bound
	var firstErr error
	try := func(cand *Schedule) {
		// Dominance prune: a candidate whose provable floor is already at
		// or above the incumbent cannot strictly improve on it. The
		// (1-1e-9) factor absorbs the different floating-point summation
		// order between the bound and the simulator's busy accounting.
		if lb := sr.lowerBound(cand); lb*(1-1e-9) >= float64(bestTime) {
			sr.recycle(cand)
			return
		}
		t, err := sr.iterTime(cand)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			sr.recycle(cand)
			return
		}
		if t < bestTime {
			if best != nil {
				sr.recycle(best)
			}
			bestTime, best = t, cand
			return
		}
		sr.recycle(cand)
	}
	for r := maxResident; r <= k; r++ {
		var tail unit.Bytes
		for i := r; i < k; i++ {
			tail += payloads[i]
		}
		if tail > sr.budget {
			continue
		}
		// Candidate (a): capacity-based swapping with the greedy
		// constraint-10.1 recompute interleave.
		cand := sr.scheduleFromCuts(cs)
		cand.Resident = r
		for i := range cand.Blocks {
			if i < r {
				cand.Blocks[i].Policy = Swap
			} else {
				cand.Blocks[i].Policy = Keep
			}
		}
		if !sr.opts.DisableRecompute {
			sr.markRecompute(cand, sr.budget-tail)
		}
		try(cand)

		// Candidate (b): checkpointed full recompute of the prefix —
		// adjacent runs split by resident boundary checkpoints (the
		// gradient-checkpointing structure, which KARMA's two-tier
		// optimization subsumes; Fig. 4's search space includes it).
		if !sr.opts.DisableRecompute && r > 0 && r < k {
			ck := sr.scheduleFromCuts(cs)
			ck.Resident = r
			if checkpointPrefix(ck, r, sr.budget-tail) {
				try(ck)
			} else {
				sr.recycle(ck)
			}
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, 0, firstErr
		}
		return nil, 0, errNoPolicy
	}
	return best, bestTime, nil
}

// scheduleFromCuts materializes a candidate schedule from a cut set's
// numeric merges: merged blocks, resident suffix, and Swap policy for
// the non-resident prefix. Under StreamWeights every block carries its
// weight and (scaled) gradient payload, including resident blocks —
// their weights occupy the budget instead of the reserve. The schedule
// reuses a recycled one when there is any.
func (sr *searcher) scheduleFromCuts(cs *cutSet) *Schedule {
	n := len(sr.p.Blocks)
	cuts := cs.cuts
	var s *Schedule
	if last := len(sr.free) - 1; last >= 0 {
		s, sr.free = sr.free[last], sr.free[:last]
	} else {
		s = new(Schedule)
	}
	blocks := s.Blocks[:0]
	if cap(blocks) < len(cuts)+1 {
		blocks = make([]Block, 0, len(cuts)+1)
	}
	payloads := sr.spay[:0]
	start := 0
	for i := 0; i <= len(cuts); i++ {
		end := n
		if i < len(cuts) {
			end = cuts[i]
		}
		b := Block{Range: [2]int{start, end}, Cost: cs.costs[i]}
		start = end
		if sr.opts.StreamWeights {
			b.WBytes = b.Cost.WeightBytes
			b.GBytes = unit.Bytes(math.Ceil(sr.opts.GradScale * float64(b.Cost.WeightBytes)))
		}
		blocks = append(blocks, b)
		payloads = append(payloads, b.Payload())
	}
	sr.spay = payloads
	resident := occupancy.ResidentSuffix(payloads, sr.budget)
	for i := range blocks {
		if i < resident {
			blocks[i].Policy = Swap
		} else {
			blocks[i].Policy = Keep
		}
	}
	*s = Schedule{Profile: sr.p, Opts: sr.opts, Blocks: blocks, Resident: resident, Budget: sr.budget}
	return s
}

// recycle hands a candidate schedule nothing references any more back
// to scheduleFromCuts.
func (sr *searcher) recycle(s *Schedule) { sr.free = append(sr.free, s) }

// checkpointPrefix marks blocks [0, r) as recompute with greedy run
// splitting: whenever the running replay working set would exceed half
// the prefix budget, the previous block gets a checkpoint and a new run
// starts. It reports whether the construction stayed memory-feasible
// (checkpoints plus the largest run fit the prefix budget).
func checkpointPrefix(s *Schedule, r int, prefixBudget unit.Bytes) bool {
	// No swaps coexist with this candidate's replays, so runs may use
	// most of the prefix budget (the rest buys checkpoints).
	runCap := prefixBudget - prefixBudget/4
	// A checkpoint must land on a block that physically stores its
	// boundary tensor (ActBytes >= OutBytes); in-place segments alias
	// their predecessor's buffer and cannot anchor a replay.
	canAnchor := func(i int) bool {
		return i > 0 && s.Blocks[i].Cost.ActBytes >= s.Blocks[i].Cost.OutBytes &&
			s.Blocks[i].Cost.OutBytes > 0
	}
	var run unit.Bytes
	for i := 0; i < r; i++ {
		s.Blocks[i].Policy = Recompute
		if run+s.Blocks[i].Payload() > runCap && i > 0 {
			for j := i - 1; j > 0; j-- {
				if canAnchor(j) {
					s.Blocks[j].Ckpt = true
					break
				}
			}
			run = 0
		}
		run += s.Blocks[i].Payload()
	}
	for i := r; i < len(s.Blocks); i++ {
		s.Blocks[i].Policy = Keep
	}
	var ckpt unit.Bytes
	for i := range s.Blocks {
		if b := &s.Blocks[i]; b.Ckpt {
			ckpt += b.Cost.OutBytes
		}
	}
	return ckpt+maxRunBytes(s.Blocks) <= prefixBudget
}

// recomputeCand is a swapped block markRecompute may flip to recompute,
// with the time flipping it saves.
type recomputeCand struct {
	idx     int
	benefit unit.Seconds
}

// markRecompute greedily flips swapped blocks to full recompute in order
// of the time saved (the heavy-payload transfer avoided minus the extra
// replay compute beyond the cheap part a partial swap already pays),
// subject to the memory side condition of constraint 10.1: a recompute
// run replays wholesale, so no run's working set may exceed half the
// budget left beside the resident tail. Run boundaries need no extra
// reserve: each run replays from its predecessor's activations, which are
// either resident or arrive on the swap-in stream (the compiler emits
// that dependency).
func (sr *searcher) markRecompute(s *Schedule, prefixBudget unit.Bytes) {
	cands := sr.rcands[:0]
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
	sr.rcands = cands
	slices.SortFunc(cands, func(a, b recomputeCand) int {
		if a.benefit != b.benefit {
			return cmp.Compare(b.benefit, a.benefit)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	runCap := prefixBudget / 2
	if maxRunBytes(s.Blocks) > runCap {
		return // no flip can shrink a run, so every flip would be undone
	}
	// The largest run fits runCap, and a flip changes only the run through
	// the flipped block, so that run alone decides whether the flip stays.
	for _, c := range cands {
		s.Blocks[c.idx].Policy = Recompute
		if runBytesAt(s.Blocks, c.idx) > runCap {
			s.Blocks[c.idx].Policy = Swap
		}
	}
}

// runBytesAt returns the total payload of the recompute run holding
// block i (which must recompute), delimited as maxRunBytes delimits
// runs: a run ends at a checkpointed block or before a block that does
// not recompute. Payloads are non-negative, so the total is the largest
// running sum maxRunBytes sees in that run.
func runBytesAt(blocks []Block, i int) unit.Bytes {
	lo := i
	for lo > 0 && blocks[lo-1].Policy == Recompute && !blocks[lo-1].Ckpt {
		lo--
	}
	var sum unit.Bytes
	for j := lo; j < len(blocks) && blocks[j].Policy == Recompute; j++ {
		sum += blocks[j].Payload()
		if blocks[j].Ckpt {
			break
		}
	}
	return sum
}

// maxRunBytes returns the largest recompute run's total activation
// payload; checkpointed blocks end their run.
func maxRunBytes(blocks []Block) unit.Bytes {
	var max, cur unit.Bytes
	for i := range blocks {
		if b := &blocks[i]; b.Policy == Recompute {
			cur += b.Payload()
			if cur > max {
				max = cur
			}
			if b.Ckpt {
				cur = 0
			}
		} else {
			cur = 0
		}
	}
	return max
}
