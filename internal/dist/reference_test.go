package dist

import (
	"sort"

	"karma/internal/comm"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/unit"
)

// This file keeps the per-call lowering the planned backend used before
// plan-shape templates, unchanged, as the reference the templated path
// is pinned to (template_test.go): every KARMA replica and MP+DP/ZeRO
// shard plan is rebuilt from scratch, with fresh stage arenas, and its
// durations computed inline by the injectors.

// refReplicaPlan lowers a replica schedule to the plan IR with the A4
// momentum traffic (under UpdateOnDevice) and the phased gradient
// exchange injected.
func refReplicaPlan(s *karma.Schedule, cl hw.Cluster, gpus int, o KARMAOptions) (*plan.Plan, error) {
	pl, err := karma.BuildPlan(s)
	if err != nil {
		return nil, err
	}
	if o.UpdateOnDevice {
		refAddMomentumTraffic(pl, s, cl, o, gpus)
	}
	if gpus > 1 {
		refInjectExchange(pl, s, cl, gpus)
	}
	return pl, nil
}

// refAddMomentumTraffic adds each streamed block's momentum round trip
// to its last SwapIn and SwapOut.
func refAddMomentumTraffic(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, o KARMAOptions, gpus int) {
	swapBW := hw.SwapThroughput(cl.Node)
	lat := cl.Node.Link.Latency
	lastIn := map[int]*plan.Op{}
	lastOut := map[int]*plan.Op{}
	for si := range pl.Stages {
		for oi := range pl.Stages[si].Ops {
			op := &pl.Stages[si].Ops[oi]
			switch op.Kind {
			case plan.SwapIn:
				lastIn[op.Block] = op
			case plan.SwapOut:
				lastOut[op.Block] = op
			}
		}
	}
	for b, blk := range s.Blocks {
		if blk.Policy == karma.Keep || blk.WBytes == 0 {
			continue
		}
		mom := float64(o.Precision.OptimBytes(blk.WBytes))
		if o.ZeROShard {
			mom /= float64(gpus)
		}
		t := unit.TransferTime(unit.Bytes(mom), swapBW, lat)
		if op := lastIn[b]; op != nil {
			op.Duration += t
		}
		if op := lastOut[b]; op != nil {
			op.Duration += t
		}
	}
}

// refInjectExchange appends the phased gradient exchange, one
// Network-stream op per group after the stage completing it.
func refInjectExchange(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, gpus int) {
	k := len(s.Blocks)
	backend := comm.Pick(gpus)
	sizes := make([]unit.Bytes, k)
	for i := 0; i < k; i++ {
		sizes[i] = s.Blocks[k-1-i].Cost.WeightBytes // completion order
	}
	groups := comm.PhasedGroups(sizes, cl, gpus, backend)

	// lastStage[b] is the stage after which block b's gradients are
	// available for exchange.
	lastStage := make([]int, k)
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
	var ins []insertion
	for _, g := range groups {
		last := 0
		for _, i := range g.Blocks {
			if i > last {
				last = i
			}
		}
		blk := k - 1 - last
		ins = append(ins, insertion{after: lastStage[blk], op: plan.Op{
			Kind: plan.GradExchange, Block: blk, Duration: g.Time,
		}})
	}
	sort.Slice(ins, func(a, b int) bool { return ins[a].after < ins[b].after })

	out := make([]plan.Stage, 0, len(pl.Stages)+len(ins))
	next := 0
	for si, st := range pl.Stages {
		out = append(out, st)
		for next < len(ins) && ins[next].after == si {
			out = append(out, plan.Stage{Ops: []plan.Op{ins[next].op}})
			next++
		}
	}
	pl.Stages = out
}

// refBuildHybridPlan lowers the shard schedule and injects the MP
// collectives, the data-parallel exchange and the closing update.
func refBuildHybridPlan(cfg model.TransformerConfig, shard *model.Shard, p *profiler.Profile, s *karma.Schedule, cl hw.Cluster, mp, replicas int, zero bool, o HybridOptions, ex, mpArena *stageArena) (*plan.Plan, error) {
	pl, err := karma.BuildPlan(s)
	if err != nil {
		return nil, err
	}
	// Exchange first, collectives second: the walk below then queues each
	// backward's blocking all-reduce ahead of the exchange phase it
	// unblocks, the priority a real implementation gives the collective
	// the next layer's compute is stalled on.
	refInjectHybridExchange(pl, s, cl, replicas, mp*replicas, zero, o, ex)
	refInjectMPCollectives(pl, s, shard, p, cfg, cl, mp, replicas, mpArena)
	refAppendHybridUpdate(pl, s, cl, zero, replicas)
	return pl, nil
}

// refInjectMPCollectives inserts the blocking Megatron all-reduces.
func refInjectMPCollectives(pl *plan.Plan, s *karma.Schedule, shard *model.Shard, p *profiler.Profile, cfg model.TransformerConfig, cl hw.Cluster, mp, replicas int, arena *stageArena) {
	if mp <= 1 {
		return
	}
	backend := comm.Pick(mp * replicas)
	perAR := comm.HierarchicalAllReduce(mpARPayload(cfg, p), cl, mp, backend)
	if perAR <= 0 {
		return
	}
	kind := plan.MPAllReduce
	if mp <= cl.Node.Devices {
		kind = plan.MPAllReduceLocal
	}
	ar := func(block, n int) {
		arena.one(plan.Op{
			Kind: kind, Block: block,
			Duration: unit.Seconds(float64(n) * float64(perAR)),
		})
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

// refInjectHybridExchange adds the data-parallel exchange across the
// shard's replicas, bulk or phased (with ZeRO's parameter gathers).
func refInjectHybridExchange(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, replicas, gpus int, zero bool, o HybridOptions, arena *stageArena) {
	if replicas <= 1 {
		return
	}
	backend := comm.Pick(gpus)
	ring := shardEngine(cl)
	k := len(s.Blocks)

	if !zero && !o.Phased {
		var total unit.Bytes
		for _, b := range s.Blocks {
			total += b.Cost.WeightBytes
		}
		if t := comm.RingAllReduceOver(ring, total, replicas, backend); t > 0 {
			// Attached to the first weighted block so the update op's
			// GradExchange dependency (appendHybridUpdate) finds it.
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: plan.GradExchange, Block: firstWeightedBlock(s), Duration: t,
			}}})
		}
		return
	}

	// A group is one collective — merging amortizes its latency — but its
	// traffic drains per block as gradients are produced, so each member
	// block carries its byte-share of the group's time. Spreading the
	// phases this way lets the blocking MP all-reduces slot between them
	// on the network FIFO instead of stalling behind a monolithic phase.
	spread := func(sizes []unit.Bytes, half bool) []unit.Seconds {
		out := make([]unit.Seconds, len(sizes))
		for _, g := range comm.RingPhasedGroupsOver(ring, sizes, replicas, backend) {
			t := g.Time
			if half {
				t /= 2 // reduce-scatter or all-gather: half the ring steps
			}
			for _, i := range g.Blocks {
				if g.Bytes > 0 && sizes[i] > 0 {
					out[i] += unit.Seconds(float64(t) * float64(sizes[i]) / float64(g.Bytes))
				}
			}
		}
		return out
	}
	sizes := make([]unit.Bytes, k)
	for i := 0; i < k; i++ {
		sizes[i] = s.Blocks[k-1-i].Cost.WeightBytes // completion order
	}
	exAfter := make([]unit.Seconds, k)
	for i, t := range spread(sizes, zero) {
		exAfter[k-1-i] = t
	}
	agBefore := make([]unit.Seconds, k)
	if zero {
		fwdSizes := make([]unit.Bytes, k)
		for i := 0; i < k; i++ {
			fwdSizes[i] = s.Blocks[i].Cost.WeightBytes
		}
		agBefore = spread(fwdSizes, true)
	}

	arena.reset()
	for _, st := range pl.Stages {
		for _, op := range st.Ops {
			if op.Kind == plan.Fwd && agBefore[op.Block] > 0 {
				arena.one(plan.Op{
					Kind: plan.ParamGather, Block: op.Block, Duration: agBefore[op.Block],
				})
			}
		}
		arena.keep(st)
		for _, op := range st.Ops {
			if op.Kind == plan.Bwd && exAfter[op.Block] > 0 {
				arena.one(plan.Op{
					Kind: plan.GradExchange, Block: op.Block, Duration: exAfter[op.Block],
				})
			}
		}
	}
	pl.Stages = arena.stages
}

// refAppendHybridUpdate closes the iteration with the device-side
// optimizer step.
func refAppendHybridUpdate(pl *plan.Plan, s *karma.Schedule, cl hw.Cluster, zero bool, replicas int) {
	var updF float64
	for _, b := range s.Blocks {
		updF += float64(b.Cost.UpdateFLOPs)
	}
	if zero {
		updF /= float64(replicas)
	}
	pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
		Kind: plan.UpdateGPU, Block: firstWeightedBlock(s),
		Duration: unit.ComputeTime(unit.FLOPs(updF), cl.Node.Device.SustainedFLOPS()),
	}}})
}
