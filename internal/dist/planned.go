package dist

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Planned is the planner-backed evaluator: instead of the closed-form
// heavy/cheap activation split, each KARMA replica derives a per-replica
// profile (sharded batch, optionally ZeRO-shrunk gradient footprint),
// runs the real two-tier partition search (karma.Plan: Opt-1 blocking,
// Opt-2 recompute interleave — at cluster scale in the §III-G
// weight-streaming regime), and feeds the schedule through the event
// simulator with the phased gradient exchange of internal/comm injected
// as Network-stream ops, so swap and recompute stalls overlap the
// exchange exactly as in Fig. 3.
//
// Replica profiles come from the process-wide memo both backends share,
// keyed by (graph, node, batch, dtype); partition searches are cached
// per evaluator by (profile, planner options). Graphs are interned by
// the value that builds them (CachedTransformer, CachedModel), so equal
// configurations share one graph, hence one profile, hence one search:
// sweeps re-plan each replica shape once per process, and a second pass
// over the same panels re-plans nothing. Note that under ZeROShard the
// gradient shard (1/gpus) is part of the replica shape — each GPU count
// genuinely plans a different footprint — so a ZeRO sweep replans per
// GPU count by design.
//
// Plans are lowered once per shape too. A plan's structure is fixed by
// its schedule and a few options (template.go lists them), while the
// GPU count and the fabric change only the durations of its exchange,
// gather, MP all-reduce, update and momentum ops. Each Planned keeps
// the compiled template of every shape it has simulated (at most
// templateLimit, LRU); a grid point computes just those durations,
// patches them into its shape's template on a pooled scratch, and
// simulates. The recording evaluator lowers the full plan instead,
// because exports need the plan.Plan; pipeline stage plans are lowered
// per call on the pooled scratch.
//
// All three caches are singleflight LRUs (internal/memo), so one shared
// Planned serves a parallel sweep: concurrent grid points that need the
// same replica profile, partition search or template block on one
// computation instead of duplicating or serializing it, and distinct
// keys compute in parallel.
// The hybrid and pipeline shard builds/profiles/schedules come from the
// process-wide caches both backends share (see hybridSetup).
//
// The in-core hybrid baselines (MegatronHybrid, ZeRO) run per layer too:
// the 1/mp shard of model.TransformerShard is profiled, its in-core (or
// checkpointed) schedule lowered to a plan, the blocking MP all-reduces
// and the data-parallel exchange injected as collective-stream ops, and
// the whole iteration simulated — so compute/collective overlap and
// checkpoint-recompute stalls interact per layer (see planned_hybrid.go).
// Conventional DataParallel stays on the closed form, which is exact for
// a schedule with no overlap structure at all. When the partition search
// or the simulator cannot cost a configuration the shared precheck deems
// feasible, Planned falls back to the analytic cost (the result keeps
// its "analytic" tag in Result.Backend) rather than diverging on the
// feasibility verdict. Recording returns a variant that also keeps the
// plan and timeline behind every result it returns (the export path).
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
// deterministic as a schedule and is cached as a value — plannedIter
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

// KARMADataParallel implements Evaluator with the planner-backed replica
// cost.
func (pe *Planned) KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("dist: nil graph")
	}
	if err := validateRun(cl, gpus, perReplicaBatch, samples); err != nil {
		return nil, err
	}
	global := gpus * perReplicaBatch
	stamp := func(r *Result) *Result { r.Backend = pe.Name(); return r }
	if total := cl.TotalDevices(); gpus > total {
		return stamp(infeasible(gpus, global, "cluster %s has %d devices, need %d", cl.Name, total, gpus)), nil
	}
	p, err := replicaProfile(g, cl.Node, perReplicaBatch, o.Precision.DType())
	if err != nil {
		return nil, err
	}
	m := budget(cl)
	if mb := maxBlockBytes(p); mb > m {
		// Shared verdict with the analytic backend: a single block that
		// cannot fit is infeasible under any policy.
		return stamp(infeasible(gpus, global, "largest block needs %v of %v device memory", mb, m)), nil
	}
	weights := p.TotalWeightBytes
	grads := weights
	gs := 1.0
	if o.ZeROShard {
		gs = 1 / float64(gpus)
		grads = unit.Bytes(math.Ceil(float64(weights) / float64(gpus)))
	}
	if weights+grads+p.TotalActBytes <= m {
		// Fully in-core the planner degenerates to conventional data
		// parallelism and the closed form is exact; both backends agree
		// bit-for-bit here by construction.
		r, err := KARMADataParallel(g, cl, gpus, perReplicaBatch, samples, o)
		if err != nil {
			return nil, err
		}
		if pe.rec != nil {
			// The recorded plan is the all-resident schedule the search
			// derives for the in-core profile.
			_, _, ex, serr := pe.plannedIter(p, cl, gpus, o, gs)
			pe.record(r, ex, serr)
		}
		return stamp(r), nil
	}
	iter, bd, ex, err := pe.plannedIter(p, cl, gpus, o, gs)
	if err != nil {
		// The search found no simulable schedule for a configuration the
		// shared precheck deems feasible: keep the feasibility verdict
		// aligned and fall back to the closed form.
		r, ferr := KARMADataParallel(g, cl, gpus, perReplicaBatch, samples, o)
		if r != nil {
			r.Backend = "analytic"
			pe.record(r, nil, err)
		}
		return r, ferr
	}
	r := finalize(iter, gpus, global, samples)
	r.Breakdown = bd
	pe.record(r, ex, nil)
	return stamp(r), nil
}

// plannedIter plans one replica and simulates its iteration with the
// phased gradient exchange overlapped. The returned breakdown derives
// from the simulated timeline (timelineBreakdown) with the update cost
// — which the simulation does not schedule — added to both the
// iteration and its Update component, so the attribution still sums to
// the iteration time. A recording evaluator also gets the simulated
// plan back.
func (pe *Planned) plannedIter(p *profiler.Profile, cl hw.Cluster, gpus int, o KARMAOptions, gs float64) (unit.Seconds, *Breakdown, *PlanExport, error) {
	if pe.failSim {
		return 0, nil, nil, errForcedFallback
	}
	var s *karma.Schedule
	var err error
	pe.timed("search", func() { s, err = pe.replicaSchedule(p, gs) })
	if err != nil {
		return 0, nil, nil, err
	}
	sc := pe.scratch()
	defer pe.release(sc)
	var lw lowered
	pe.timed("plan_build", func() { lw, err = pe.lowerReplica(sc, s, cl, gpus, o) })
	if err != nil {
		return 0, nil, nil, err
	}
	tl, err := pe.run(sc, lw, s.Budget)
	if err != nil {
		return 0, nil, nil, err
	}
	upd := updateCost(s, cl, o, gs)
	b := timelineBreakdown(lw.ops, lw.kind, tl, &sc.bd)
	b.Update += upd
	return tl.Makespan + upd, b, pe.capture(lw, tl, s.Budget), nil
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
	built, err := karma.BuildPlanWith(&sc.bld, s)
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

// DataParallel implements Evaluator. Conventional data parallelism is
// in-core by definition with no overlap structure to simulate; the
// closed form is exact and the result keeps its "analytic" tag.
func (pe *Planned) DataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	return DataParallel(g, cl, gpus, perReplicaBatch, samples)
}

// MegatronHybrid implements Evaluator with the per-layer simulated shard
// (see planned_hybrid.go).
func (pe *Planned) MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return pe.hybrid(cfg, cl, mp, gpus, perReplicaBatch, samples, false, o)
}

// ZeRO implements Evaluator with the per-layer simulated shard; the
// exchange is always phased (reduce-scatter behind backward, parameter
// all-gather under forward).
func (pe *Planned) ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	o.Phased = true
	return pe.hybrid(cfg, cl, mp, gpus, perReplicaBatch, samples, true, o)
}
