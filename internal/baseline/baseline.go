// Package baseline implements the comparison systems of the paper's
// single-GPU evaluation (Fig. 5, Fig. 6, Table I): conventional in-core
// training, the out-of-core virtualization methods vDNN++ and ooc_cuDNN,
// the swap+recompute hybrid SuperNeurons, and the pure-recompute methods
// Checkmate and sqrt(N) gradient checkpointing. Every method lowers to
// the same plan IR and runs on the same simulator as KARMA, so
// comparisons isolate scheduling policy, not modeling differences.
package baseline

import (
	"fmt"

	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/layer"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/solve"
	"karma/internal/unit"
)

// Method identifies a training strategy.
type Method string

// The evaluated methods. KARMA and KARMARecompute dispatch to the core
// planner so experiment code can sweep all methods uniformly.
const (
	InCore         Method = "in-core"
	VDNNPP         Method = "vdnn++"
	OocCuDNN       Method = "ooc_cudnn"
	SuperNeurons   Method = "superneurons"
	Checkmate      Method = "checkmate"
	GradCkpt       Method = "grad-ckpt"
	KARMA          Method = "karma"
	KARMARecompute Method = "karma+recompute"
)

// Methods lists all methods in Fig. 5 presentation order.
func Methods() []Method {
	return []Method{InCore, VDNNPP, SuperNeurons, Checkmate, KARMA, KARMARecompute}
}

// Result is the outcome of running one method on one profile.
type Result struct {
	Method   Method
	Feasible bool
	// Reason explains infeasibility.
	Reason string

	IterTime     unit.Seconds
	Throughput   float64 // samples/s
	Occupancy    float64
	ComputeStall unit.Seconds
	PeakMem      unit.Bytes
	BwdTrace     []karma.BlockTrace
}

// Run executes a method against a profile. Every method lowers,
// compiles and simulates on one pooled plan.Scratch; the Result keeps
// only scalars and a BwdTrace of its own, never scratch memory.
func Run(m Method, p *profiler.Profile) (*Result, error) {
	if m == KARMA || m == KARMARecompute {
		// The planner's Opt-2 search takes its own pooled scratch; taking
		// this one only once it is handed back keeps one scratch busy.
		return runKARMA(p, m)
	}
	sc := plan.GetScratch()
	defer plan.PutScratch(sc)
	switch m {
	case InCore:
		return runInCore(sc, p)
	case VDNNPP:
		return runSwapper(sc, p, VDNNPP, 1)
	case OocCuDNN:
		return runSwapper(sc, p, OocCuDNN, 0)
	case SuperNeurons:
		return runSuperNeurons(sc, p)
	case Checkmate, GradCkpt:
		return runRecompute(sc, p, m)
	default:
		return nil, fmt.Errorf("baseline: unknown method %q", m)
	}
}

func infeasible(m Method, reason string) *Result {
	return &Result{Method: m, Feasible: false, Reason: reason}
}

// runKARMA dispatches to the core planner and simulates its schedule
// like any other method's plan.
func runKARMA(p *profiler.Profile, m Method) (*Result, error) {
	s, err := karma.Plan(p, karma.Options{DisableRecompute: m == KARMA})
	sc := plan.GetScratch()
	defer plan.PutScratch(sc)
	if err == nil {
		_, err = karma.BuildPlanWith(&sc.Builder, s)
	}
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	return simulate(sc, m, s.Budget, p)
}

// runInCore is conventional training: feasible only when everything fits.
func runInCore(sc *plan.Scratch, p *profiler.Profile) (*Result, error) {
	if !p.FitsInCore() {
		return infeasible(InCore, fmt.Sprintf("footprint %v exceeds usable %v",
			p.InCoreBytes(), p.Node.Device.UsableMem())), nil
	}
	budget, err := karma.BudgetFor(p, 0)
	if err != nil {
		return infeasible(InCore, err.Error()), nil
	}
	bld := sc.Builder.Reset("in-core/"+p.Graph.Name(), len(p.Blocks))
	for i := range p.Blocks {
		bld.Stage(plan.Op{Kind: plan.Fwd, Block: i, Duration: p.Blocks[i].FwdTime, Alloc: p.Blocks[i].ActBytes})
	}
	for i := len(p.Blocks) - 1; i >= 0; i-- {
		bld.Stage(plan.Op{Kind: plan.Bwd, Block: i, Duration: p.Blocks[i].BwdTime, Free: p.Blocks[i].ActBytes})
	}
	return simulate(sc, InCore, budget, p)
}

// workingSet is the eager methods' feasibility floor: every block's
// activations must fit the budget together with its successor's.
func workingSet(p *profiler.Profile, budget unit.Bytes) error {
	for i := range p.Blocks {
		need := p.Blocks[i].ActBytes
		if i+1 < len(p.Blocks) {
			need += p.Blocks[i+1].ActBytes
		}
		if need > budget {
			return fmt.Errorf("working set %v exceeds budget %v", need, budget)
		}
	}
	return nil
}

// runSwapper implements the eager virtualization family (§II-A1):
// every block swaps out right after its forward pass — including the last
// one, the Fig. 2a inefficiency — and swaps back in during backward with
// the given prefetch lookahead (1 block for vDNN++, 0 for ooc_cuDNN,
// which applies no prefetching).
func runSwapper(sc *plan.Scratch, p *profiler.Profile, m Method, lookahead int) (*Result, error) {
	budget, err := karma.BudgetFor(p, 0.05)
	if err == nil {
		err = workingSet(p, budget)
	}
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	n := len(p.Blocks)
	bld := sc.Builder.Reset(string(m)+"/"+p.Graph.Name(), n)
	swapOut := func(b int) plan.Op {
		return plan.Op{Kind: plan.SwapOut, Block: b, Duration: p.Blocks[b].SwapTime, Free: p.Blocks[b].ActBytes}
	}
	swapIn := func(b int) plan.Op {
		return plan.Op{Kind: plan.SwapIn, Block: b, Duration: p.Blocks[b].SwapTime, Alloc: p.Blocks[b].ActBytes}
	}
	// Forward: F_b plus eager swap-out of the previous block.
	for b := 0; b < n; b++ {
		bld.BeginStage()
		bld.Add(plan.Op{Kind: plan.Fwd, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes})
		if b > 0 {
			bld.Add(swapOut(b - 1))
		}
		bld.EndStage()
	}
	// Eager family flaw: the last block also swaps out, then must return
	// before its backward can begin.
	bld.Stage(swapOut(n - 1))

	// Backward with fixed lookahead prefetch. The last block was eagerly
	// swapped out, so it must come back synchronously first — the Fig. 2a
	// forward→backward stall of the eager family.
	bld.Stage(swapIn(n - 1))
	for b := n - 1; b >= 0; b-- {
		bld.BeginStage()
		if lookahead == 0 && b < n-1 {
			// No prefetch: the fetch launches only when the backward
			// reaches the block, fully exposing the transfer.
			bld.Add(swapIn(b))
		}
		bld.Add(plan.Op{Kind: plan.Bwd, Block: b, Duration: p.Blocks[b].BwdTime, Free: p.Blocks[b].ActBytes})
		if lookahead > 0 && b-lookahead >= 0 {
			// Prefetch the block consumed `lookahead` steps later.
			bld.Add(swapIn(b - lookahead))
		}
		bld.EndStage()
	}
	return simulate(sc, m, budget, p)
}

// runSuperNeurons mixes swapping and recompute by layer *type* (§II-A3):
// the activations of heavy layers (convolutions and other weighted ops)
// swap out; cheap layers (normalization, pooling) are recomputed in
// backward. The split is per layer type, not per cost model, and there is
// no capacity-based residency — the sources of its spread-out stalls in
// Fig. 6.
func runSuperNeurons(sc *plan.Scratch, p *profiler.Profile) (*Result, error) {
	budget, err := karma.BudgetFor(p, 0.05)
	if err == nil {
		err = workingSet(p, budget)
	}
	if err != nil {
		return infeasible(SuperNeurons, err.Error()), nil
	}
	n := len(p.Blocks)
	rate := p.Node.Device.SustainedFLOPS()
	swapBW := hw.SwapThroughput(p.Node)
	batch := int64(p.Opts.Batch)
	elem := int64(4)

	// Per block: bytes of heavy-layer outputs (swapped) and the forward
	// cost of the cheap layers (recomputed).
	swapBytes := make([]unit.Bytes, n)
	cheapTime := make([]unit.Seconds, n)
	for i := range p.Blocks {
		b := &p.Blocks[i]
		var heavyElems int64
		var cheapFLOPs int64
		for _, id := range b.Seg.Nodes {
			node := p.Graph.Node(id)
			switch node.L.(type) {
			case *layer.Conv2D, *layer.Deconv2D, *layer.Dense,
				*layer.SelfAttention, *layer.LSTM, *layer.Embedding:
				heavyElems += node.OutShape.Elems()
			default:
				cheapFLOPs += node.FwdFLOPs
			}
		}
		sb := unit.Bytes(float64(heavyElems*elem*batch) * p.Opts.ActOverhead)
		if sb > b.ActBytes {
			sb = b.ActBytes
		}
		swapBytes[i] = sb
		cheapTime[i] = unit.ComputeTime(unit.FLOPs(cheapFLOPs*batch), rate)
	}

	bld := sc.Builder.Reset("superneurons/"+p.Graph.Name(), n)
	move := func(b int) unit.Seconds {
		return unit.TransferTime(swapBytes[b], swapBW, p.Node.Link.Latency)
	}
	swapOut := func(b int) plan.Op {
		return plan.Op{Kind: plan.SwapOut, Block: b, Duration: move(b), Free: p.Blocks[b].ActBytes}
	}
	swapIn := func(b int) plan.Op {
		return plan.Op{Kind: plan.SwapIn, Block: b, Duration: move(b), Alloc: swapBytes[b]}
	}
	// Forward: eager treatment after each block — heavy outputs swap out,
	// the remainder drops for recompute.
	for b := 0; b < n; b++ {
		bld.BeginStage()
		bld.Add(plan.Op{Kind: plan.Fwd, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes})
		if b > 0 {
			bld.Add(swapOut(b - 1))
		}
		bld.EndStage()
	}
	bld.Stage(swapOut(n - 1))

	// Backward: one-block-ahead prefetch of the heavy payload, cheap
	// recompute in line, like the SuperNeurons runtime.
	bld.Stage(swapIn(n - 1))
	for b := n - 1; b >= 0; b-- {
		if cheapTime[b] > 0 || p.Blocks[b].ActBytes > swapBytes[b] {
			bld.Stage(plan.Op{
				Kind: plan.Recompute, Block: b,
				Duration: cheapTime[b],
				Alloc:    p.Blocks[b].ActBytes - swapBytes[b],
			})
		}
		bld.BeginStage()
		bld.Add(plan.Op{Kind: plan.Bwd, Block: b, Duration: p.Blocks[b].BwdTime, Free: p.Blocks[b].ActBytes})
		if b-1 >= 0 {
			bld.Add(swapIn(b - 1))
		}
		bld.EndStage()
	}
	return simulate(sc, SuperNeurons, budget, p)
}

// runRecompute implements the pure rematerialization family (§II-A2):
// no swapping. Blocks are grouped into checkpoint segments; during the
// forward pass only each segment's boundary activation survives, and
// during backward each segment is recomputed wholesale from its incoming
// checkpoint (Chen et al.'s scheme, giving the O(sqrt N) bound of
// Table I). GradCkpt uses the canonical sqrt(N) segment count; Checkmate
// ("optimal rematerialization") sweeps the segment count and keeps the
// fastest feasible schedule.
func runRecompute(sc *plan.Scratch, p *profiler.Profile, m Method) (*Result, error) {
	budget, err := karma.BudgetFor(p, 0.05)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	n := len(p.Blocks)
	sqrtN := 1
	for sqrtN*sqrtN < n {
		sqrtN++
	}

	if m == GradCkpt {
		r, err := recomputeWithSegments(sc, p, m, sqrtN, budget)
		if err != nil {
			return nil, err
		}
		if !r.Feasible {
			return infeasible(m, "no feasible checkpoint segmentation"), nil
		}
		return r, nil
	}
	// Checkmate sweeps the segment count. Every candidate is a serial chain
	// on the compute stream, so it is costed by an exact scan of that chain
	// (checkmateSweep.iterTime) instead of being built, compiled and
	// simulated; only the winning k goes through the full reporting path.
	// The winner is the first strict minimum in ascending k.
	sw, err := newCheckmateSweep(p, budget)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	bestK := -1
	var bestT unit.Seconds
	for k := 1; k <= n && k <= 48; k++ {
		t, ok := sw.iterTime(k)
		if !ok {
			continue
		}
		if bestK < 0 || t < bestT {
			bestK, bestT = k, t
		}
	}
	if bestK < 0 {
		return infeasible(m, "no feasible checkpoint segmentation"), nil
	}
	return recomputeWithSegments(sc, p, m, bestK, budget)
}

// checkmateSweep is the reusable candidate-costing state of the
// Checkmate segment-count sweep: one partitioner and its cut scratch.
type checkmateSweep struct {
	p      *profiler.Profile
	budget unit.Bytes
	pt     *solve.Partitioner
	cuts   []int
}

func newCheckmateSweep(p *profiler.Profile, budget unit.Bytes) (*checkmateSweep, error) {
	weights := make([]float64, len(p.Blocks))
	for i, b := range p.Blocks {
		weights[i] = float64(b.ActBytes) + 1
	}
	pt, err := solve.NewPartitioner(weights)
	if err != nil {
		return nil, err
	}
	return &checkmateSweep{p: p, budget: budget, pt: pt}, nil
}

// chainScan replays a serial chain of ops — each starting when its
// predecessor ends, as every op of a k-segment plan does on the compute
// stream — the way the simulator plays it: an op must fit the live bytes
// at its start (nothing else is pending that could free memory, so a
// misfit is the simulator's deadlock), its end is the previous end plus
// its duration, and its free at the end must not drive the live bytes
// below zero.
type chainScan struct {
	avail, live unit.Bytes
	t           unit.Seconds
	ok          bool
}

func (c *chainScan) op(d unit.Seconds, alloc, free unit.Bytes) {
	if !c.ok {
		return
	}
	if d < 0 || alloc < 0 || free < 0 || c.live+alloc > c.avail {
		c.ok = false
		return
	}
	c.live += alloc
	c.t += d
	c.live -= free
	if c.live < 0 {
		c.ok = false
	}
}

// iterTime costs one k-segment candidate with a chain scan over exactly
// the ops recomputeWithSegments emits, in the same order, so the time is
// bit-identical to the simulated makespan. It reports ok=false where the
// full path would report an infeasible result.
func (sw *checkmateSweep) iterTime(k int) (unit.Seconds, bool) {
	p := sw.p
	n := len(p.Blocks)
	cuts, err := sw.pt.AppendCuts(sw.cuts[:0], k)
	if err != nil {
		return 0, false
	}
	sw.cuts = cuts
	var ckpt unit.Bytes
	for _, c := range cuts {
		ckpt += p.Blocks[c-1].OutBytes
	}
	sc := chainScan{avail: sw.budget - ckpt, ok: true}
	if sc.avail <= 0 {
		return 0, false
	}
	// Forward: segment acts live until the next segment's first forward.
	var prevAct unit.Bytes
	start := 0
	for ci := 0; ci <= len(cuts); ci++ {
		end := n
		if ci < len(cuts) {
			end = cuts[ci]
		}
		var act unit.Bytes
		for b := start; b < end; b++ {
			var free unit.Bytes
			if b == start && ci > 0 {
				free = prevAct
			}
			sc.op(p.Blocks[b].FwdTime, p.Blocks[b].ActBytes, free)
			act += p.Blocks[b].ActBytes
		}
		prevAct = act
		start = end
	}
	// Backward: the last segment kept its activations; earlier segments
	// recompute wholesale from their incoming checkpoint.
	for si := len(cuts); si >= 0; si-- {
		s0 := 0
		if si > 0 {
			s0 = cuts[si-1]
		}
		e0 := n
		if si < len(cuts) {
			e0 = cuts[si]
			for b := s0; b < e0; b++ {
				sc.op(p.Blocks[b].FwdTime, p.Blocks[b].ActBytes, 0)
			}
		}
		for b := e0 - 1; b >= s0; b-- {
			sc.op(p.Blocks[b].BwdTime, 0, p.Blocks[b].ActBytes)
		}
	}
	if !sc.ok {
		return 0, false
	}
	return sc.t, true
}

// recomputeWithSegments builds and simulates a k-segment checkpointing
// plan on the scratch.
func recomputeWithSegments(sc *plan.Scratch, p *profiler.Profile, m Method, k int, budget unit.Bytes) (*Result, error) {
	n := len(p.Blocks)
	weights := make([]float64, n)
	for i, b := range p.Blocks {
		weights[i] = float64(b.ActBytes) + 1
	}
	cuts, err := solve.BalancedPartition(weights, k)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	rs := solve.Ranges(cuts, n)

	// Segment boundary checkpoints stay resident the whole iteration;
	// reserve them out of the budget.
	var ckpt unit.Bytes
	for _, r := range rs[:len(rs)-1] {
		ckpt += p.Blocks[r[1]-1].OutBytes
	}
	avail := budget - ckpt
	if avail <= 0 {
		return infeasible(m, fmt.Sprintf("checkpoints %v exceed budget %v", ckpt, budget)), nil
	}
	segAct := func(r [2]int) unit.Bytes {
		var s unit.Bytes
		for i := r[0]; i < r[1]; i++ {
			s += p.Blocks[i].ActBytes
		}
		return s
	}

	bld := sc.Builder.Reset(fmt.Sprintf("%s-k%d/%s", m, k, p.Graph.Name()), n)
	// Forward: segment acts live until the next segment's first forward.
	for si, r := range rs {
		for b := r[0]; b < r[1]; b++ {
			op := plan.Op{Kind: plan.Fwd, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes}
			if b == r[0] && si > 0 {
				op.Free = segAct(rs[si-1])
			}
			bld.Stage(op)
		}
	}
	// Backward: the last segment kept its activations; earlier segments
	// recompute wholesale from their incoming checkpoint.
	for si := len(rs) - 1; si >= 0; si-- {
		r := rs[si]
		if si < len(rs)-1 {
			for b := r[0]; b < r[1]; b++ {
				bld.Stage(plan.Op{Kind: plan.Recompute, Block: b, Duration: p.Blocks[b].FwdTime, Alloc: p.Blocks[b].ActBytes})
			}
		}
		for b := r[1] - 1; b >= r[0]; b-- {
			bld.Stage(plan.Op{Kind: plan.Bwd, Block: b, Duration: p.Blocks[b].BwdTime, Free: p.Blocks[b].ActBytes})
		}
	}
	return simulate(sc, m, avail, p)
}

// simulate runs the plan assembled in the scratch's builder against the
// budget and packages the result, which keeps nothing of the scratch.
func simulate(sc *plan.Scratch, m Method, budget unit.Bytes, p *profiler.Profile) (*Result, error) {
	c, tl, err := sc.Simulate(sc.Builder.Plan(), budget)
	if err != nil {
		return infeasible(m, err.Error()), nil
	}
	res := &Result{
		Method:       m,
		Feasible:     true,
		IterTime:     tl.Makespan,
		Throughput:   float64(p.Opts.Batch) / float64(tl.Makespan),
		Occupancy:    tl.Occupancy(c.Ops),
		ComputeStall: tl.ComputeIdle(c.Ops),
		PeakMem:      tl.PeakMem,
	}
	res.BwdTrace = karma.TraceBackward(c, tl)
	return res, nil
}
