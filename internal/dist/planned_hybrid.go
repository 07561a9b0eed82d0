package dist

import (
	"karma/internal/comm"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/unit"
)

// This file is the planner-backed path for the in-core hybrid baselines
// (Megatron MP+DP, ZeRO): instead of the closed forms of hybrid.go, the
// 1/mp shard graph is profiled per layer, its in-core (or checkpointed)
// schedule lowered to the plan IR, the Megatron collectives and the
// data-parallel exchange injected on the collective streams, and the
// iteration costed by the event simulator — so the blocking per-layer
// all-reduces, checkpoint replays and the phased exchange contend and
// overlap exactly as scheduled (the fidelity tier above hybrid.go's
// phase algebra). evalHybrid simulates lowerHybrid's ops; the update is a
// scheduled op here, so the breakdown needs no supplement and its
// components sum to the makespan by construction.

// lowerHybrid lowers one MP+DP or ZeRO grid point on the scratch: the
// durations of its exchange, gather, MP collectives and update, then its
// shape's template (or, recording, the full plan).
func (pe *Planned) lowerHybrid(sc *planScratch, cfg model.TransformerConfig, shard *model.Shard, p *profiler.Profile, s *karma.Schedule, cl hw.Cluster, mp, replicas int, zero bool, o HybridOptions) (lowered, error) {
	hybridDurations(sc, cfg, p, s, cl, mp, replicas, zero, o)
	d := &sc.d
	sc.sig = sc.sig[:0]
	for b := range s.Blocks {
		var bits byte
		if d.ex[b] > 0 {
			bits |= 1
		}
		if d.ag[b] > 0 {
			bits |= 2
		}
		sc.sig = append(sc.sig, bits)
	}
	key := shapeKey{s: s, shard: shard, mp: mp, zero: zero, phased: o.Phased}
	if d.perAR > 0 {
		key.mpKind = d.mpKind
		sc.sig = append(sc.sig, 1)
	} else {
		sc.sig = append(sc.sig, 0)
	}
	key.sig = string(sc.sig)
	return pe.lower(sc, key, func(d *varDurs) (*plan.Plan, error) {
		return hybridPlan(sc, s, shard, p, zero, o.Phased, d)
	})
}

// hybridDurations fills sc.d with a hybrid grid point's variable
// durations: the data-parallel exchange across the shard's replicas
// (hybridExchangeTimes), one blocking MP all-reduce over the MP group —
// packed inside one node it collects over NVLink (MPAllReduceLocal) and
// leaves the network stream to the exchange, spanning nodes it contends
// with it (MPAllReduce) — and the closing update.
func hybridDurations(sc *planScratch, cfg model.TransformerConfig, p *profiler.Profile, s *karma.Schedule, cl hw.Cluster, mp, replicas int, zero bool, o HybridOptions) {
	k := len(s.Blocks)
	d := &sc.d
	d.ex = resized(d.ex, k)
	d.ag = resized(d.ag, k)
	d.exBlocks = d.exBlocks[:0]
	d.mom = nil
	hybridExchangeTimes(sc, s, cl, replicas, mp*replicas, zero, o)
	d.perAR, d.mpKind = 0, plan.MPAllReduce
	if mp > 1 {
		d.perAR = comm.HierarchicalAllReduce(mpARPayload(cfg, p), cl, mp, comm.Pick(mp*replicas))
		if mp <= cl.Node.Devices {
			d.mpKind = plan.MPAllReduceLocal
		}
	}
	d.update = hybridUpdateTime(s, cl, zero, replicas)
}

// hybridPlan is the hybrid's emission step: the shard schedule lowered
// to the plan IR on the scratch's builder, with the data-parallel
// exchange, the MP collectives and the closing update injected.
func hybridPlan(sc *planScratch, s *karma.Schedule, shard *model.Shard, p *profiler.Profile, zero, phased bool, d *varDurs) (*plan.Plan, error) {
	built, err := karma.BuildPlanWith(&sc.Builder, s)
	if err != nil {
		return nil, err
	}
	// The injectors repoint Stages at their arenas: inject into a copy of
	// the header, so the builder's next Reset cannot append into them.
	pl := *built
	// Exchange first, collectives second: the walk below then queues each
	// backward's blocking all-reduce ahead of the exchange phase it
	// unblocks, the priority a real implementation gives the collective
	// the next layer's compute is stalled on.
	injectHybridExchange(sc, &pl, s, d, !zero && !phased)
	injectMPCollectives(sc, &pl, s, shard, p, d)
	appendHybridUpdate(&pl, s, d)
	return &pl, nil
}

// stageArena backs one injector's rebuilt stage list with two flat
// slices, so a steady-state rebuild allocates nothing once grown. Ops of
// kept stages alias the input plan; single-op stages point into the ops
// arena (growth may leave earlier stages on an older backing array,
// which is fine — they are never mutated afterwards).
type stageArena struct {
	stages []plan.Stage
	ops    []plan.Op
}

func (a *stageArena) reset() {
	a.stages = a.stages[:0]
	a.ops = a.ops[:0]
}

// keep copies an existing stage through unchanged.
func (a *stageArena) keep(st plan.Stage) {
	a.stages = append(a.stages, st)
}

// one appends a new single-op stage.
func (a *stageArena) one(op plan.Op) {
	a.ops = append(a.ops, op)
	n := len(a.ops)
	a.stages = append(a.stages, plan.Stage{Ops: a.ops[n-1 : n : n]})
}

// injectMPCollectives inserts the blocking Megatron all-reduces: one
// after every forward pass (and interior checkpoint-run replay, whose
// boundary must be re-reduced) of a block ending in a row-parallel
// boundary, stalling the next block's forward; and one per such block in
// backward, where the input-gradient collective launches after the
// dgrad half of the backward pass and overlaps the wgrad half — the
// standard Megatron-LM overlap — before the previous block's backward
// may start. Each op carries its collective count times d.perAR.
func injectMPCollectives(sc *planScratch, pl *plan.Plan, s *karma.Schedule, shard *model.Shard, p *profiler.Profile, d *varDurs) {
	if d.perAR <= 0 {
		return
	}
	arena := &sc.mp
	ar := func(block, n int) {
		arena.one(plan.Op{Kind: d.mpKind, Block: block, Duration: arTime(n, d.perAR)})
	}
	fwdAR, bwdAR := arCounts(shard, p)
	arena.reset()
	for _, st := range pl.Stages {
		if len(st.Ops) == 1 && st.Ops[0].Kind == plan.Bwd && bwdAR[st.Ops[0].Block] > 0 {
			// dgrad → input-gradient all-reduce ∥ wgrad: the collective
			// launches once the data-gradient half produced its partial
			// sums and overlaps the weight-gradient half; memory frees
			// when the whole backward pass retires.
			op := st.Ops[0]
			dgrad, wgrad := op, op
			dgrad.Duration = op.Duration / 2
			dgrad.Alloc, dgrad.Free = op.Alloc, 0
			wgrad.Duration = op.Duration - dgrad.Duration
			wgrad.Alloc, wgrad.Free = 0, op.Free
			arena.one(dgrad)
			ar(op.Block, bwdAR[op.Block])
			arena.one(wgrad)
			continue
		}
		arena.keep(st)
		for _, op := range st.Ops {
			n := 0
			switch op.Kind {
			case plan.Fwd:
				n = fwdAR[op.Block]
			case plan.Bwd:
				// A backward sharing its stage with other ops (none of the
				// in-core/checkpointed schedules emit this today) still
				// gets its blocking collective — serially, without the
				// wgrad overlap of the split above.
				n = bwdAR[op.Block]
			case plan.Recompute:
				if s.RunContinues(op.Block) {
					n = fwdAR[op.Block]
				}
			}
			if n > 0 {
				ar(op.Block, n)
			}
		}
	}
	pl.Stages = arena.stages
}

// firstWeightedBlock returns the lowest block index carrying weights —
// the block whose backward completes last among weighted blocks, and
// therefore the one whose exchange phase drains the network last.
func firstWeightedBlock(s *karma.Schedule) int {
	for i, b := range s.Blocks {
		if b.Cost.WeightBytes > 0 {
			return i
		}
	}
	return 0
}

// hybridExchangeTimes sets the data-parallel gradient exchange across
// the shard's replicas in sc.d. Bulk mode is one ring collective after
// the whole backward pass, on the first weighted block (so the update
// op's GradExchange dependency finds it); phased mode groups per-block
// payloads in backward completion order (comm.RingPhasedGroupsOver) and
// times each block's share of its phase. Under ZeRO each phase is the
// reduce-scatter half, and the matching parameter all-gather half
// prefetches ahead of the forward pass that consumes it (steady state).
func hybridExchangeTimes(sc *planScratch, s *karma.Schedule, cl hw.Cluster, replicas, gpus int, zero bool, o HybridOptions) {
	if replicas <= 1 {
		return
	}
	d := &sc.d
	backend := comm.Pick(gpus)
	ring := shardEngine(cl)
	k := len(s.Blocks)

	if !zero && !o.Phased {
		var total unit.Bytes
		for _, b := range s.Blocks {
			total += b.Cost.WeightBytes
		}
		if t := comm.RingAllReduceOver(ring, total, replicas, backend); t > 0 {
			d.ex[firstWeightedBlock(s)] = t
		}
		return
	}

	// A group is one collective — merging amortizes its latency — but its
	// traffic drains per block as gradients are produced, so each member
	// block carries its byte-share of the group's time. Spreading the
	// phases this way lets the blocking MP all-reduces slot between them
	// on the network FIFO instead of stalling behind a monolithic phase.
	// out(i) is the time slot of the i-th size.
	spread := func(sizes []unit.Bytes, half bool, out func(i int) *unit.Seconds) {
		for _, g := range comm.RingPhasedGroupsOver(ring, sizes, replicas, backend) {
			t := g.Time
			if half {
				t /= 2 // reduce-scatter or all-gather: half the ring steps
			}
			for _, i := range g.Blocks {
				if g.Bytes > 0 && sizes[i] > 0 {
					*out(i) += unit.Seconds(float64(t) * float64(sizes[i]) / float64(g.Bytes))
				}
			}
		}
	}
	sc.sizes = resized(sc.sizes, k)
	for i := 0; i < k; i++ {
		sc.sizes[i] = s.Blocks[k-1-i].Cost.WeightBytes // completion order
	}
	spread(sc.sizes, zero, func(i int) *unit.Seconds { return &d.ex[k-1-i] })
	if zero {
		for i := 0; i < k; i++ {
			sc.sizes[i] = s.Blocks[i].Cost.WeightBytes
		}
		spread(sc.sizes, true, func(i int) *unit.Seconds { return &d.ag[i] })
	}
}

// injectHybridExchange emits the exchange d holds: bulk, one GradExchange
// stage appended after the backward pass; phased, each block's
// GradExchange right after the backward that completes it and its ZeRO
// ParamGather right before the forward that consumes it, filling the
// network gaps between the blocking forward collectives.
func injectHybridExchange(sc *planScratch, pl *plan.Plan, s *karma.Schedule, d *varDurs, bulk bool) {
	if bulk {
		if fw := firstWeightedBlock(s); d.ex[fw] > 0 {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: plan.GradExchange, Block: fw, Duration: d.ex[fw],
			}}})
		}
		return
	}
	arena := &sc.ex
	arena.reset()
	for _, st := range pl.Stages {
		for _, op := range st.Ops {
			if op.Kind == plan.Fwd && d.ag[op.Block] > 0 {
				arena.one(plan.Op{
					Kind: plan.ParamGather, Block: op.Block, Duration: d.ag[op.Block],
				})
			}
		}
		arena.keep(st)
		for _, op := range st.Ops {
			if op.Kind == plan.Bwd && d.ex[op.Block] > 0 {
				arena.one(plan.Op{
					Kind: plan.GradExchange, Block: op.Block, Duration: d.ex[op.Block],
				})
			}
		}
	}
	pl.Stages = arena.stages
}

// hybridUpdateTime is the device-side optimizer step that closes the
// iteration. Under ZeRO every replica updates only its 1/replicas
// optimizer partition.
func hybridUpdateTime(s *karma.Schedule, cl hw.Cluster, zero bool, replicas int) unit.Seconds {
	var updF float64
	for _, b := range s.Blocks {
		updF += float64(b.Cost.UpdateFLOPs)
	}
	if zero {
		updF /= float64(replicas)
	}
	return unit.ComputeTime(unit.FLOPs(updF), cl.Node.Device.SustainedFLOPS())
}

// appendHybridUpdate closes the iteration with the update op: it is
// attached to the first weighted block — whose exchange phase drains
// last — so the compiler's GradExchange dependency makes it wait for the
// full exchange before serializing on the compute stream.
func appendHybridUpdate(pl *plan.Plan, s *karma.Schedule, d *varDurs) {
	pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
		Kind: plan.UpdateGPU, Block: firstWeightedBlock(s), Duration: d.update,
	}}})
}
