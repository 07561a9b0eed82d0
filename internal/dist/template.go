package dist

import (
	"fmt"

	"karma/internal/karma"
	"karma/internal/memo"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// This file is the lowering every planned family shares: one grid point
// becomes simulator ops on a pooled planScratch, either by patching the
// compiled template of its plan shape (the sweep path) or by lowering
// and compiling the full plan afresh (the recording evaluator, whose
// exports need the plan.Plan, and the pipeline's stage plans).
//
// A plan's structure depends on fewer inputs than its durations. For a
// KARMA replica it is fixed by the schedule, UpdateOnDevice and the
// phased-group layout of the exchange; for an MP+DP or ZeRO shard by the
// schedule, the shard, mp, zero, phased and which variable ops exist.
// The GPU count and the fabric change only the durations of the
// exchange, parameter-gather, MP all-reduce and update ops and of the
// momentum round trip on streamed swaps. Each family therefore splits
// its lowering in two: a durations function filling varDurs, and an
// emission step that consumes them. A template is the emission compiled
// once per shape; a grid point computes its varDurs with the same
// durations function and writes them into the template's slots through
// the same arithmetic (varDurs.of), so the patched ops equal a fresh
// compilation bit for bit.

// templateLimit bounds the templates one Planned keeps. It covers the
// plan shapes of every karma-bench cluster panel, so warm passes rebuild
// none; a daemon's request-derived shapes cycle through it.
const templateLimit = 64

// shapeKey identifies one plan shape. KARMA replicas leave shard, mp,
// zero, phased and mpKind zero; hybrids leave onDevice false. Schedule
// pointers are distinct per family, so the two never collide.
type shapeKey struct {
	s        *karma.Schedule
	shard    *model.Shard
	mp       int
	zero     bool
	phased   bool
	onDevice bool
	mpKind   plan.Kind
	// sig encodes which variable ops exist and where: a replica's
	// exchange blocks in group order, a hybrid's per-block exchange and
	// gather presence plus its MP-collective flag.
	sig string
}

// slotKind names the duration a template slot takes from varDurs.
type slotKind uint8

const (
	slotExchange  slotKind = iota // GradExchange: ex[block]
	slotGather                    // ParamGather: ag[block]
	slotAllReduce                 // MPAllReduce(Local): arg × perAR
	slotUpdate                    // UpdateGPU: update
	slotMomentum                  // last SwapIn/SwapOut of a streamed block: base + mom[block]
)

// slot is one template op whose duration varies within its shape.
type slot struct {
	op   int32
	kind slotKind
	// arg is the op's block, or for an MP all-reduce its collective count.
	arg int32
	// base is a momentum slot's duration without the momentum traffic.
	base unit.Seconds
}

// shapeTemplate is one plan shape: its compiled template and the slots a
// grid point patches.
type shapeTemplate struct {
	t     *plan.Template
	slots []slot
}

// varDurs are the durations one grid point gives the ops its shape
// leaves variable. Slices are indexed by block and live in the scratch.
type varDurs struct {
	ex []unit.Seconds // GradExchange after each block (hybrids: 0 = none)
	// exBlocks are a replica's exchange blocks, one per phased group in
	// group order: the emission's insertion order.
	exBlocks []int
	ag       []unit.Seconds // ZeRO ParamGather ahead of each block (0 = none)
	// mom is the momentum round trip per block under UpdateOnDevice; nil
	// when the blocks update on the host.
	mom    []unit.Seconds
	perAR  unit.Seconds // one MP all-reduce (0 = no MP collectives)
	mpKind plan.Kind    // MPAllReduce or MPAllReduceLocal
	update unit.Seconds // the hybrid's closing UpdateGPU
}

// arTime is the duration of an MP op carrying n blocking all-reduces.
func arTime(n int, perAR unit.Seconds) unit.Seconds {
	return unit.Seconds(float64(n) * float64(perAR))
}

// of returns the duration slot sl takes at this grid point.
func (d *varDurs) of(sl slot) unit.Seconds {
	switch sl.kind {
	case slotExchange:
		return d.ex[sl.arg]
	case slotGather:
		return d.ag[sl.arg]
	case slotAllReduce:
		return arTime(int(sl.arg), d.perAR)
	case slotUpdate:
		return d.update
	default: // slotMomentum
		return sl.base + d.mom[sl.arg]
	}
}

// planScratch is the reusable state of one planned evaluation: the plan
// builder, compiler and simulator of a plan.Scratch, the stage arenas
// the injectors rebuild into, and the varDurs and bookkeeping buffers.
// It has a free list of its own (scratches) beside plan's, because it
// carries the extra state; both are memo.Pools, so a garbage collection
// keeps their grown buffers. The sweep engine evaluates configurations
// from several workers, and reuse never changes results, it only skips
// re-growing the buffers.
type planScratch struct {
	plan.Scratch
	ex stageArena
	mp stageArena
	d  varDurs
	bd breakdownBuf
	// sizes, mom, ints and lastIn/lastOut are per-block working buffers
	// of the durations functions and emission steps.
	sizes           []unit.Bytes
	mom             []unit.Seconds
	ints            []int
	lastIn, lastOut []*plan.Op
	sig             []byte
}

// scratches keeps at most GOMAXPROCS idle scratches, one per sweep
// worker that can run at once.
var scratches = memo.NewPool(func() *planScratch { return new(planScratch) })

// scratch returns the evaluation state for one iteration: pooled, or
// fresh under recording, whose exported plan and timeline outlive the
// call.
func (pe *Planned) scratch() *planScratch {
	if pe.rec != nil {
		return new(planScratch)
	}
	return scratches.Get()
}

// release returns a scratch obtained from scratch.
func (pe *Planned) release(sc *planScratch) {
	if pe.rec == nil {
		scratches.Put(sc)
	}
}

// resized returns buf with length n and every element zero.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// lowered is one grid point's simulator input: the ops, and either the
// template (patched path) or the fresh plan and compilation (recording
// and pipeline paths) the ops came from.
type lowered struct {
	ops  []sim.Op
	name string
	t    *plan.Template
	pl   *plan.Plan
	c    *plan.Compiled
}

// kind returns the plan kind of op i.
func (lw *lowered) kind(i int) plan.Kind {
	if lw.t != nil {
		return lw.t.Kind(i)
	}
	return lw.c.PlanOps[i].Kind
}

// lowerFresh lowers and compiles one plan on the scratch.
func lowerFresh(sc *planScratch, pl *plan.Plan, err error) (lowered, error) {
	if err != nil {
		return lowered{}, err
	}
	c, err := sc.Compiler.Compile(pl)
	if err != nil {
		return lowered{}, err
	}
	return lowered{ops: c.Ops, name: pl.Name, pl: pl, c: c}, nil
}

// lower turns one grid point into simulator ops: the full plan when pe
// records, otherwise the shape's template (built on first sight) with
// the durations in sc.d patched in. emit is the family's emission step.
func (pe *Planned) lower(sc *planScratch, key shapeKey, emit func(*varDurs) (*plan.Plan, error)) (lowered, error) {
	d := &sc.d
	if pe.rec != nil {
		pl, err := emit(d)
		return lowerFresh(sc, pl, err)
	}
	st, err := pe.templates.Do(key, func() (*shapeTemplate, error) {
		return buildTemplate(sc, key, emit)
	})
	if err != nil {
		return lowered{}, err
	}
	ops := sc.Compiler.Instantiate(st.t)
	for _, sl := range st.slots {
		ops[sl.op].Duration = d.of(sl)
	}
	return lowered{ops: ops, name: st.t.Name(), t: st.t}, nil
}

// buildTemplate emits and compiles the shape once and locates its slots.
// The emission runs on the scratch's varDurs with the momentum traffic
// left out, so momentum slots record their base duration, and with a
// unit perAR, so each MP all-reduce records its collective count.
func buildTemplate(sc *planScratch, key shapeKey, emit func(*varDurs) (*plan.Plan, error)) (*shapeTemplate, error) {
	td := sc.d
	td.mom = nil
	if td.perAR > 0 {
		td.perAR = 1
	}
	pl, err := emit(&td)
	if err != nil {
		return nil, err
	}
	t, err := sc.Compiler.Template(pl)
	if err != nil {
		return nil, err
	}
	st := &shapeTemplate{t: t}
	add := func(i int, kind slotKind, arg int, base unit.Seconds) {
		st.slots = append(st.slots, slot{op: int32(i), kind: kind, arg: int32(arg), base: base})
	}
	k := len(key.s.Blocks)
	sc.ints = resized(sc.ints, 2*k)
	lastIn, lastOut := sc.ints[:k], sc.ints[k:]
	for i := range lastIn {
		lastIn[i], lastOut[i] = -1, -1
	}
	for i := 0; i < t.Len(); i++ {
		op := t.Op(i)
		switch op.Kind {
		case plan.GradExchange:
			add(i, slotExchange, op.Block, 0)
		case plan.ParamGather:
			add(i, slotGather, op.Block, 0)
		case plan.MPAllReduce, plan.MPAllReduceLocal:
			add(i, slotAllReduce, int(op.Duration), 0)
		case plan.UpdateGPU:
			add(i, slotUpdate, op.Block, 0)
		case plan.SwapIn:
			lastIn[op.Block] = i
		case plan.SwapOut:
			lastOut[op.Block] = i
		}
	}
	if key.onDevice {
		for b := range key.s.Blocks {
			if !streamedBlock(key.s, b) {
				continue
			}
			for _, i := range [2]int{lastIn[b], lastOut[b]} {
				if i >= 0 {
					add(i, slotMomentum, b, t.Op(i).Duration)
				}
			}
		}
	}
	return st, nil
}

// streamedBlock reports whether block b of s streams its weights — the
// blocks whose update round-trips momentum under UpdateOnDevice.
func streamedBlock(s *karma.Schedule, b int) bool {
	return s.Blocks[b].Policy != karma.Keep && s.Blocks[b].WBytes > 0
}

// run simulates lowered ops under budget on the scratch's simulator.
func (pe *Planned) run(sc *planScratch, lw lowered, budget unit.Bytes) (*sim.Timeline, error) {
	var tl *sim.Timeline
	var err error
	pe.timed("simulate", func() {
		//karma:plan-ok ops come from Compile, or from a template Compile built, on this scratch
		tl, err = sc.Runner.Run(lw.ops, budget)
	})
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", lw.name, err)
	}
	return tl, nil
}
