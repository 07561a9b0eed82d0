package dist

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"karma/internal/comm"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/memo"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/unit"
)

// Planned is the planner-backed evaluator. It runs the same evaluation
// path per family as Analytic — shared precheck, closed form, finish —
// and differs only in finish: where the analytic backend returns the
// closed form, Planned simulates the iteration.
//
//   - A KARMA replica runs the real two-tier partition search
//     (karma.Plan: Opt-1 blocking, Opt-2 recompute interleave — at
//     cluster scale in the §III-G weight-streaming regime) on its
//     replica profile, at the ZeRO-shrunk gradient scale under
//     ZeROShard, with the phased gradient exchange injected as
//     Network-stream ops, so swap and recompute stalls overlap the
//     exchange exactly as in Fig. 3. A fully in-core replica keeps the
//     closed form, which is exact there.
//   - An MP+DP or ZeRO shard lowers its in-core (or checkpointed)
//     schedule with the blocking MP all-reduces, the data-parallel
//     exchange and the update injected (planned_hybrid.go).
//   - A pipeline simulates its bottleneck stage's micro-batch loop and
//     adds the closed-form terms of the other stages
//     (planned_pipeline.go).
//   - Conventional DataParallel stays on the closed form, which is
//     exact for a schedule with no overlap structure at all.
//
// When the partition search or the simulator cannot cost a
// configuration the shared precheck deems feasible, finish returns the
// closed form, whose "analytic" tag in Result.Backend marks the
// fallback, rather than diverge on the feasibility verdict.
//
// Planned owns two caches, both singleflight LRUs (internal/memo), so
// one shared Planned serves a parallel sweep: concurrent grid points
// that need the same entry block on one computation, and distinct keys
// compute in parallel. schedules holds the partition searches, keyed by
// (profile, planner options); profiles, shard builds and shard
// schedules come from the process-wide caches both backends share
// (caches.go), and graphs are interned by the value that builds them
// (CachedTransformer, CachedModel), so equal configurations share one
// profile, hence one search, and a second pass over the same panels
// re-plans nothing. Under ZeROShard the gradient shard (1/gpus) is part
// of the replica shape, so a ZeRO sweep replans per GPU count by
// design. templates holds the compiled template of each plan shape (at
// most templateLimit, see template.go): the GPU count and the fabric
// change only a few durations, which a grid point patches into its
// shape's template on a pooled scratch before simulating. The recording
// evaluator (Recording) lowers the full plan instead, because exports
// need the plan.Plan; pipeline stage plans are lowered per call.
type Planned struct {
	schedules *memo.Cache[schedKey, planOutcome]
	// templates holds the compiled template of each plan shape (see
	// template.go), bounded to templateLimit entries.
	templates *memo.Cache[shapeKey, *shapeTemplate]

	// observe, when set, receives the wall-clock duration of each
	// evaluation phase (see Observe). nil on the hot path: no clock reads.
	observe func(phase string, seconds float64)

	// failSim, when set, makes every simulation attempt report an error,
	// forcing the analytic fallback paths. It exists only so the fallback
	// tagging contract (Backend stays "analytic", Ckpt still recorded)
	// can be regression-tested; nothing outside the tests sets it.
	failSim bool

	// rec, when set, logs the plan behind every result (see Recording).
	// nil on the hot path: iterations capture nothing.
	rec *recordLog
}

// Observe registers a callback receiving the wall-clock seconds spent in
// each evaluation phase: "search" (the karma.Plan partition search),
// "plan_build" (the grid point's op durations, the template lookup — or
// build — and the patch; a full lowering and compilation when
// recording, and for pipeline stages), and "simulate" (the event
// simulator's run alone). Register before serving evaluations; the
// callback may be invoked concurrently and must synchronize itself.
// With no observer registered the evaluator never reads the clock.
func (pe *Planned) Observe(fn func(phase string, seconds float64)) {
	pe.observe = fn
}

// timed runs fn, reporting its duration to the observer when one is
// registered.
func (pe *Planned) timed(phase string, fn func()) {
	if pe.observe == nil {
		fn()
		return
	}
	//karma:det-ok phase timings are observability wall-clock; no model output depends on them
	start := time.Now()
	fn()
	pe.observe(phase, time.Since(start).Seconds())
}

// schedKey identifies a partition search by profile address; profiles
// are never mutated once built (see profiler.Profile), and the cache
// entry's key keeps its profile alive, so an address is never reused
// while it is cached.
type schedKey struct {
	p    *profiler.Profile
	opts karma.Options
}

// NewPlanned returns a planner-backed evaluator with empty caches.
func NewPlanned() *Planned {
	return &Planned{
		schedules: memo.New[schedKey, planOutcome](0),
		templates: memo.New[shapeKey, *shapeTemplate](templateLimit),
	}
}

// errForcedFallback is returned by the simulation paths under the
// failSim test hook.
var errForcedFallback = fmt.Errorf("dist: simulation disabled (test hook)")

// Name implements Evaluator.
func (*Planned) Name() string { return "planned" }

// planOutcome is a cached partition-search verdict. karma.Plan is a
// pure function of (profile, options), so "no feasible schedule" is as
// deterministic as a schedule and is cached as a value — replicaIter
// probes the residency regime first and falls back to weight-streaming
// on failure, and a sweep must not re-run that failing search per grid
// point. The cache itself never retains errors (transient failures would
// retry); the error lives inside the value by the caller's choice.
type planOutcome struct {
	s   *karma.Schedule
	err error
}

// plan returns the cached planner schedule for (profile, options).
func (pe *Planned) plan(p *profiler.Profile, opts karma.Options) (*karma.Schedule, error) {
	out, _ := pe.schedules.Do(schedKey{p: p, opts: opts}, func() (planOutcome, error) {
		s, err := karma.Plan(p, opts)
		return planOutcome{s: s, err: err}, nil
	})
	return out.s, out.err
}

// KARMADataParallel implements Evaluator (see evalKARMA).
func (pe *Planned) KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	return evalKARMA(pe, g, cl, gpus, perReplicaBatch, samples, o)
}

// DataParallel implements Evaluator with the closed form, by design and
// not as a fallback: conventional data parallelism has no overlap
// structure to simulate, so every result, infeasible ones included,
// keeps the "analytic" tag (see DataParallel and Result.Backend).
func (pe *Planned) DataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	return DataParallel(g, cl, gpus, perReplicaBatch, samples)
}

// MegatronHybrid implements Evaluator (see evalHybrid).
func (pe *Planned) MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return evalHybrid(pe, cfg, cl, mp, gpus, perReplicaBatch, samples, false, o)
}

// ZeRO implements Evaluator (see evalHybrid).
func (pe *Planned) ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return evalHybrid(pe, cfg, cl, mp, gpus, perReplicaBatch, samples, true, o)
}

// Pipeline implements Evaluator (see evalPipeline).
func (pe *Planned) Pipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*Result, error) {
	return evalPipeline(pe, cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
}

// stamp tags r with the planned backend when pe is one; results are
// tagged "analytic" at construction. A nil r passes through.
func (pe *Planned) stamp(r *Result) *Result {
	if pe != nil && r != nil {
		r.Backend = pe.Name()
	}
	return r
}

// finish returns one feasible configuration's Result. On the analytic
// backend (pe == nil) that is the closed form. On the planned backend it
// is the simulated iteration, tagged "planned"; when the simulation
// fails, it is the closed form, still tagged "analytic", with the
// failure recorded — the fallback contract. exact marks a closed form
// the simulation would only reproduce (a fully in-core KARMA replica):
// it is returned tagged "planned", and simulated only to record its
// plan.
func (pe *Planned) finish(sh shell, exact bool, closed func() (unit.Seconds, *Breakdown), iter func() (unit.Seconds, *Breakdown, *PlanExport, error)) *Result {
	if pe == nil {
		return sh.result(closed())
	}
	if exact {
		r := pe.stamp(sh.result(closed()))
		if pe.rec != nil {
			_, _, ex, err := iter()
			pe.record(r, ex, err)
		}
		return r
	}
	t, bd, ex, err := iter()
	if err != nil {
		r := sh.result(closed())
		pe.record(r, nil, err)
		return r
	}
	r := pe.stamp(sh.result(t, bd))
	pe.record(r, ex, nil)
	return r
}

// simulate runs one planned iteration on a pooled scratch: lower (timed
// as "plan_build"), simulate the ops under budget, and attribute the
// timeline. It returns the makespan, its breakdown and, when recording,
// the plan behind them. The failSim test hook fails it before any work.
func (pe *Planned) simulate(budget unit.Bytes, lower func(*planScratch) (lowered, error)) (unit.Seconds, *Breakdown, *PlanExport, error) {
	if pe.failSim {
		return 0, nil, nil, errForcedFallback
	}
	sc := pe.scratch()
	defer pe.release(sc)
	var lw lowered
	var err error
	pe.timed("plan_build", func() { lw, err = lower(sc) })
	if err != nil {
		return 0, nil, nil, err
	}
	tl, err := pe.run(sc, lw, budget)
	if err != nil {
		return 0, nil, nil, err
	}
	return tl.Makespan, timelineBreakdown(lw.ops, lw.kind, tl, &sc.bd), pe.capture(lw, tl, budget), nil
}

// replicaIter plans one replica and simulates its iteration with the
// phased gradient exchange overlapped. The update, which the simulation
// does not schedule, is added to both the makespan and the breakdown's
// Update component, so the attribution still sums to the iteration
// time.
func (pe *Planned) replicaIter(p *profiler.Profile, cl hw.Cluster, gpus int, o KARMAOptions) (unit.Seconds, *Breakdown, *PlanExport, error) {
	gs := 1.0
	if o.ZeROShard {
		gs = 1 / float64(gpus)
	}
	var s *karma.Schedule
	var err error
	pe.timed("search", func() { s, err = pe.replicaSchedule(p, gs) })
	if err != nil {
		return 0, nil, nil, err
	}
	makespan, b, ex, err := pe.simulate(s.Budget, func(sc *planScratch) (lowered, error) {
		return pe.lowerReplica(sc, s, cl, gpus, o)
	})
	if err != nil {
		return 0, nil, nil, err
	}
	upd := updateCost(s, cl, o, gs)
	b.Update += upd
	return makespan + upd, b, ex, nil
}

// replicaSchedule runs the KARMA replica's partition search at gradient
// scale gs. It prefers the single-GPU residency regime (weights
// resident, only activations stream); when weights cannot stay
// resident, it plans the §III-G weight-streaming regime instead.
func (pe *Planned) replicaSchedule(p *profiler.Profile, gs float64) (*karma.Schedule, error) {
	opts := karma.Options{GradScale: gs, Seed: 1}
	s, err := pe.plan(p, opts)
	if err != nil {
		opts.StreamWeights = true
		s, err = pe.plan(p, opts)
	}
	return s, err
}

// lowerReplica lowers one replica grid point on the scratch: the
// durations of its exchange phases and momentum traffic, then its
// shape's template (or, recording, the full plan).
func (pe *Planned) lowerReplica(sc *planScratch, s *karma.Schedule, cl hw.Cluster, gpus int, o KARMAOptions) (lowered, error) {
	replicaDurations(sc, s, cl, gpus, o)
	sc.sig = sc.sig[:0]
	for _, b := range sc.d.exBlocks {
		sc.sig = binary.AppendUvarint(sc.sig, uint64(b))
	}
	key := shapeKey{s: s, onDevice: o.UpdateOnDevice, sig: string(sc.sig)}
	return pe.lower(sc, key, func(d *varDurs) (*plan.Plan, error) {
		return replicaPlan(sc, s, d)
	})
}

// replicaDurations fills sc.d with a replica's variable durations: each
// phased exchange group (comm.PhasedGroups over the per-block gradient
// payloads in backward completion order) is one GradExchange at the
// block that completes it, and under UpdateOnDevice each streamed block
// round-trips its momentum.
func replicaDurations(sc *planScratch, s *karma.Schedule, cl hw.Cluster, gpus int, o KARMAOptions) {
	k := len(s.Blocks)
	d := &sc.d
	d.ex = resized(d.ex, k)
	d.exBlocks = d.exBlocks[:0]
	if gpus > 1 {
		sc.sizes = resized(sc.sizes, k)
		for i := 0; i < k; i++ {
			sc.sizes[i] = s.Blocks[k-1-i].Cost.WeightBytes // completion order
		}
		for _, g := range comm.PhasedGroups(sc.sizes, cl, gpus, comm.Pick(gpus)) {
			last := 0
			for _, i := range g.Blocks {
				if i > last {
					last = i
				}
			}
			blk := k - 1 - last
			d.exBlocks = append(d.exBlocks, blk)
			d.ex[blk] = g.Time
		}
	}
	d.mom = nil
	if o.UpdateOnDevice {
		sc.mom = resized(sc.mom, k)
		d.mom = momentumTimes(s, cl, o, gpus, sc.mom)
	}
}

// replicaPlan is the replica's emission step: the schedule lowered to
// the plan IR on the scratch's builder, with the A4 momentum traffic
// (when d.mom is set) and the phased gradient exchange injected.
func replicaPlan(sc *planScratch, s *karma.Schedule, d *varDurs) (*plan.Plan, error) {
	built, err := karma.BuildPlanWith(&sc.Builder, s)
	if err != nil {
		return nil, err
	}
	// The injector repoints Stages at its arena: inject into a copy of
	// the header, so the builder's next Reset cannot append into it.
	pl := *built
	if d.mom != nil {
		addMomentumTraffic(sc, &pl, s, d.mom)
	}
	if len(d.exBlocks) > 0 {
		injectExchange(sc, &pl, d)
	}
	return &pl, nil
}

// updateCost returns the weight-update time on the iteration's critical
// path: the device-side update of resident (and, under UpdateOnDevice,
// streamed) blocks serializes; the host-side update of streamed blocks
// overlaps the next iteration's forward pass and only the excess stalls
// — the same accounting as the analytic replica model.
func updateCost(s *karma.Schedule, cl hw.Cluster, o KARMAOptions, gs float64) unit.Seconds {
	var devF, hostF float64
	var fwd unit.Seconds
	for _, b := range s.Blocks {
		fwd += b.Cost.FwdTime
		u := gs * float64(b.Cost.UpdateFLOPs)
		if o.UpdateOnDevice || b.Policy == karma.Keep || b.WBytes == 0 {
			devF += u
		} else {
			hostF += u
		}
	}
	t := unit.ComputeTime(unit.FLOPs(devF), cl.Node.Device.SustainedFLOPS())
	if hostT := unit.ComputeTime(unit.FLOPs(hostF), cl.Node.Host.SustainedFLOPS()); hostT > fwd {
		t += hostT - fwd
	}
	return t
}

// momentumTimes models ablation A4 on a planned schedule: forcing
// streamed blocks to update on the GPU round-trips their momentum
// buffers over the link, inflating the backward weight refetch and the
// gradient drain of every streamed block by the returned per-block time
// (zero for the other blocks). The buffers are fp32 in both precision
// regimes (ZeRO partitions momentum like the rest of the optimizer
// state).
func momentumTimes(s *karma.Schedule, cl hw.Cluster, o KARMAOptions, gpus int, out []unit.Seconds) []unit.Seconds {
	swapBW := hw.SwapThroughput(cl.Node)
	lat := cl.Node.Link.Latency
	for b, blk := range s.Blocks {
		if !streamedBlock(s, b) {
			continue
		}
		mom := float64(o.Precision.OptimBytes(blk.WBytes))
		if o.ZeROShard {
			mom /= float64(gpus)
		}
		out[b] = unit.TransferTime(unit.Bytes(mom), swapBW, lat)
	}
	return out
}

// addMomentumTraffic adds each streamed block's momentum round trip to
// its last SwapIn (the backward weight refetch) and its last SwapOut
// (the gradient drain).
func addMomentumTraffic(sc *planScratch, pl *plan.Plan, s *karma.Schedule, mom []unit.Seconds) {
	k := len(s.Blocks)
	sc.lastIn = resized(sc.lastIn, k)
	sc.lastOut = resized(sc.lastOut, k)
	for si := range pl.Stages {
		for oi := range pl.Stages[si].Ops {
			op := &pl.Stages[si].Ops[oi]
			switch op.Kind {
			case plan.SwapIn:
				sc.lastIn[op.Block] = op
			case plan.SwapOut:
				sc.lastOut[op.Block] = op
			}
		}
	}
	for b := range s.Blocks {
		if !streamedBlock(s, b) {
			continue
		}
		if op := sc.lastIn[b]; op != nil {
			op.Duration += mom[b]
		}
		if op := sc.lastOut[b]; op != nil {
			op.Duration += mom[b]
		}
	}
}

// injectExchange appends the phased block-wise gradient exchange to a
// replica plan: each phase of d.exBlocks becomes one Network-stream op
// right after the stage that produces its last gradient — its drain for
// streamed blocks, its backward pass otherwise (the compiler derives
// that dependency). The simulator then overlaps the exchange against the
// backward work still in flight, and only the excess extends the
// makespan.
func injectExchange(sc *planScratch, pl *plan.Plan, d *varDurs) {
	// lastStage[b] is the stage after which block b's gradients are
	// available for exchange.
	sc.ints = resized(sc.ints, len(d.ex))
	lastStage := sc.ints
	for si, st := range pl.Stages {
		for _, op := range st.Ops {
			if op.Kind == plan.Bwd || op.Kind == plan.SwapOut {
				if si > lastStage[op.Block] {
					lastStage[op.Block] = si
				}
			}
		}
	}
	type insertion struct {
		after int
		op    plan.Op
	}
	ins := make([]insertion, 0, len(d.exBlocks))
	for _, blk := range d.exBlocks {
		ins = append(ins, insertion{after: lastStage[blk], op: plan.Op{
			Kind: plan.GradExchange, Block: blk, Duration: d.ex[blk],
		}})
	}
	sort.Slice(ins, func(a, b int) bool { return ins[a].after < ins[b].after })

	a := &sc.ex
	a.reset()
	next := 0
	for si, st := range pl.Stages {
		a.keep(st)
		for next < len(ins) && ins[next].after == si {
			a.one(ins[next].op)
			next++
		}
	}
	pl.Stages = a.stages
}
