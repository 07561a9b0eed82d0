package dist

import (
	"karma/internal/comm"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/solve"
	"karma/internal/unit"
)

// This file is the GPipe-style pipeline (inter-layer) parallel baseline —
// the third hybrid family alongside Megatron MP+DP and ZeRO. The model
// splits into `stages` contiguous layer groups balanced by compute time;
// each stage lives on one GPU, gpus/stages replicas of the pipeline train
// data-parallel, and the per-replica batch splits into micro-batches that
// fill and drain the pipeline (the fill/drain bubble GPipe pays instead
// of the hybrids' blocking collectives). Stage boundaries cross a wire
// per micro-batch: the boundary activation forward, its gradient
// backward. Under HybridOptions.Checkpoint a stage that cannot hold all
// in-flight micro-batch activations stores only its boundary inputs and
// recomputes per micro-batch during backward — GPipe's rematerialization,
// decided adaptively per stage. As everywhere, mixed precision halves
// the boundary, exchange and activation bytes while the optimizer's fp32
// master stays resident per stage.
//
// The analytic backend costs the schedule in closed form (fill/drain
// traversal + steady-state bottleneck + exchange stall); the planned
// backend simulates the bottleneck stage's micro-batch loop with real
// stage-boundary Send/Recv ops on the wire stream (planned_pipeline.go).
// Both go through pipelineSetup, so feasibility verdicts and Reason
// strings agree by construction.

// pipeStage is one stage of the partitioned pipeline, costed at the
// micro-batch size.
type pipeStage struct {
	// Range is the half-open [start, end) span of profiler blocks.
	Range [2]int
	// Fwd, Bwd are the stage's compute times per micro-batch; Recompute
	// is the replay cost per backward micro-batch (Fwd when the stage
	// checkpoints, 0 otherwise).
	Fwd, Bwd, Recompute unit.Seconds
	// WeightBytes is the stage's resident parameter footprint; ActBytes
	// its stored activations per micro-batch; InBytes the boundary
	// activation arriving from the previous stage per micro-batch (zero
	// for stage 0); OutBytes the boundary leaving to the next (zero for
	// the last stage).
	WeightBytes, ActBytes, InBytes, OutBytes unit.Bytes
	// UpdateFLOPs is the stage's weight-update work.
	UpdateFLOPs unit.FLOPs
	// Ckpt marks the stage as rematerializing: only boundary inputs stay
	// resident across micro-batches.
	Ckpt bool
}

// perMicro is the stage's compute time per steady-state micro-batch.
func (st pipeStage) perMicro() unit.Seconds { return st.Fwd + st.Recompute + st.Bwd }

// rate is the stage's steady-state micro-batch period: its compute, or
// its boundary wire when that is slower. Both backends pick the
// bottleneck stage by this one metric.
func (st pipeStage) rate(wire func(unit.Bytes) unit.Seconds) unit.Seconds {
	r := st.perMicro()
	if w := wire(st.InBytes) + wire(st.OutBytes); w > r {
		r = w
	}
	return r
}

// bottleneckStage returns the index and rate of the slowest stage — the
// one that sets the steady-state period (the first such on ties). Both
// backends simulate or attribute from this stage's seat.
func bottleneckStage(sts []pipeStage, wire func(unit.Bytes) unit.Seconds) (int, unit.Seconds) {
	sb, best := 0, unit.Seconds(0)
	for s, st := range sts {
		if r := st.rate(wire); r > best {
			sb, best = s, r
		}
	}
	return sb, best
}

// fixedBytes is the stage's micro-batch-independent residency: weights,
// gradients and the fp32 master (pipeline parallelism shards none of
// them). The shared capacity verdict and the planned backend's
// simulation budget both derive from it.
func (st pipeStage) fixedBytes(o HybridOptions) unit.Bytes {
	return 2*st.WeightBytes + o.Precision.MasterBytes(st.WeightBytes)
}

// pipeWire returns the stage-boundary transfer cost function and whether
// the boundary rides NVLink: a pipeline whose stages pack inside one
// node crosses boundaries over the topology's device tier; one spanning
// nodes pays the contended inter-node route, like the hybrids' exchange
// (every device on a node drives a concurrent pipeline).
func pipeWire(cl hw.Cluster, stages int, b comm.Backend) (func(unit.Bytes) unit.Seconds, bool) {
	e := shardEngine(cl)
	local := stages <= cl.Node.Devices
	return func(n unit.Bytes) unit.Seconds {
		return comm.PointToPointOver(e, n, local, b)
	}, local
}

// pipelineSetup validates the argument set shared by both backends,
// profiles the full model at the micro-batch size (memoized
// process-wide, like the hybrids' shard profiles), partitions it into
// balanced stages, and decides each stage's residency regime. Both
// evaluator backends go through it, so feasibility verdicts agree by
// construction. It returns the configuration's shell; a non-nil Result
// reports an infeasible configuration.
func pipelineSetup(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) ([]pipeStage, shell, *Result, error) {
	if err := validateRun(cl, gpus, perReplicaBatch, samples); err != nil {
		return nil, shell{}, nil, err
	}
	if err := positive("pipeline stage count", stages); err != nil {
		return nil, shell{}, nil, err
	}
	if err := positive("micro-batch count", micro); err != nil {
		return nil, shell{}, nil, err
	}
	if err := validateTransformer(cfg); err != nil {
		return nil, shell{}, nil, err
	}
	replicas := gpus / stages
	sh := shell{gpus: gpus, global: replicas * perReplicaBatch, samples: samples, ckpt: o.Checkpoint}
	if gpus%stages != 0 || replicas < 1 {
		return nil, sh, sh.infeasible("%d GPUs do not divide into pipelines of %d stages", gpus, stages), nil
	}
	if total := cl.TotalDevices(); gpus > total {
		return nil, sh, sh.infeasible("cluster %s has %d devices, need %d", cl.Name, total, gpus), nil
	}
	if perReplicaBatch%micro != 0 {
		return nil, sh, sh.infeasible("%d micro-batches do not divide the per-replica batch %d", micro, perReplicaBatch), nil
	}
	p, err := cachedProfile(shardProfileKey{
		mk:    modelKey{cfg: cfg},
		node:  cl.Node,
		batch: perReplicaBatch / micro,
		dt:    o.Precision.DType(),
	})
	if err != nil {
		return nil, sh, nil, err
	}
	if stages > len(p.Blocks) {
		return nil, sh, sh.infeasible("model %s has %d blocks; cannot form %d pipeline stages", cfg.Name, len(p.Blocks), stages), nil
	}

	// Balance stages by compute time (the quantity the steady-state
	// bottleneck maximizes over).
	weights := make([]float64, len(p.Blocks))
	for i, b := range p.Blocks {
		weights[i] = float64(b.FwdTime+b.BwdTime) + 1e-12
	}
	cuts, err := solve.BalancedPartition(weights, stages)
	if err != nil {
		return nil, sh, nil, err
	}
	m := budget(cl)
	var sts []pipeStage
	for si, rg := range solve.Ranges(cuts, len(p.Blocks)) {
		st := pipeStage{Range: rg}
		for i := rg[0]; i < rg[1]; i++ {
			b := p.Blocks[i]
			st.Fwd += b.FwdTime
			st.Bwd += b.BwdTime
			st.WeightBytes += b.WeightBytes
			st.ActBytes += b.ActBytes
			st.UpdateFLOPs += b.UpdateFLOPs
		}
		if rg[0] > 0 {
			st.InBytes = p.Blocks[rg[0]-1].OutBytes
		}
		if rg[1] < len(p.Blocks) {
			st.OutBytes = p.Blocks[rg[1]-1].OutBytes
		}
		// Residency: the fixed stage footprint plus the in-flight
		// micro-batch activations — all of them resident, or boundary
		// inputs only with one replayed micro under Checkpoint.
		fixed := st.fixedBytes(o)
		mm := int64(micro)
		resident := fixed + unit.Bytes(mm*int64(st.InBytes+st.ActBytes))
		ckpt := fixed + unit.Bytes(mm*int64(st.InBytes)) + st.ActBytes
		switch {
		case resident <= m:
			// All micro-batch activations stay resident.
		case o.Checkpoint && ckpt <= m:
			st.Ckpt = true
			st.Recompute = st.Fwd
		default:
			need := resident
			if o.Checkpoint && ckpt < need {
				need = ckpt
			}
			return nil, sh, sh.infeasible(
				"pipeline stage %d/%d needs %v of %v device memory; add stages or micro-batches",
				si+1, stages, need, m), nil
		}
		sts = append(sts, st)
	}
	return sts, sh, nil, nil
}

// pipeCost is the analytic decomposition of one pipeline iteration.
type pipeCost struct {
	// traversal is the fill+drain path: one micro-batch's pass through
	// every stage and across every boundary, forward and backward.
	traversal unit.Seconds
	// steady is the remaining micro-batches at the bottleneck stage's
	// rate (compute- or wire-bound, whichever is slower).
	steady unit.Seconds
	// exchangeStall is data-parallel gradient-exchange time not hidden
	// under the drain of earlier stages.
	exchangeStall unit.Seconds
	// update is the slowest stage's optimizer step.
	update unit.Seconds
	// bd attributes the same algebra from the bottleneck stage's point of
	// view; its components sum to iter() by construction.
	bd Breakdown
}

func (c pipeCost) iter() unit.Seconds {
	return c.traversal + c.steady + c.exchangeStall + c.update
}

// breakdown returns the attribution for attachment to a Result.
func (c pipeCost) breakdown() *Breakdown {
	b := c.bd
	return b.withOccupancy(c.iter())
}

// pipelineCost evaluates the GPipe fill-drain schedule in closed form:
// the first micro-batch traverses all stages and boundaries (fill +
// drain), the remaining micro-1 proceed at the bottleneck stage's rate,
// the per-stage gradient exchanges (one ring per stage across its
// replicas) overlap the drain of earlier stages under o.Phased, and the
// slowest stage's update closes the iteration.
func pipelineCost(sts []pipeStage, cl hw.Cluster, stages, replicas, micro int, o HybridOptions) pipeCost {
	backend := comm.Pick(stages * replicas)
	wire, local := pipeWire(cl, stages, backend)

	var c pipeCost
	sb, bottleneck := bottleneckStage(sts, wire)
	for _, st := range sts {
		c.traversal += st.perMicro() + wire(st.OutBytes)*2 // boundary: activation out, gradient back
		if u := unit.ComputeTime(st.UpdateFLOPs, cl.Node.Device.SustainedFLOPS()); u > c.update {
			c.update = u
		}
	}
	c.steady = unit.Seconds(float64(micro-1) * float64(bottleneck))

	// Attribution from the bottleneck stage's seat: its micro-batch math
	// is compute (and recompute), everything it waits on — other stages'
	// traversal, boundary wires, and its own wire-bound steady-state
	// excess — is bubble. The components sum to iter() by construction.
	bt := sts[sb]
	c.bd.Compute = unit.Seconds(float64(micro) * float64(bt.Fwd+bt.Bwd))
	c.bd.Recompute = unit.Seconds(float64(micro) * float64(bt.Recompute))
	c.bd.Bubble = (c.traversal - bt.perMicro()) +
		unit.Seconds(float64(micro-1)*float64(bottleneck-bt.perMicro()))
	c.bd.Busy.Compute = unit.Seconds(float64(micro)*float64(bt.perMicro())) + c.update
	if wireT := unit.Seconds(float64(micro) * float64(wire(bt.InBytes)+wire(bt.OutBytes))); local {
		c.bd.Busy.NVLink = wireT
	} else {
		c.bd.Busy.Network = wireT
	}

	// Exchange: stage s's gradients complete at its last backward; while
	// they reduce, stages before it are still draining. Under o.Phased
	// only the excess over that drain window stalls; bulk serializes.
	if replicas > 1 {
		ring := shardEngine(cl)
		var window unit.Seconds
		for s := range sts {
			// Stage s's last backward retires while stages 0..s-1 are still
			// draining; its exchange overlaps that window (backward ripples
			// from the last stage toward stage 0, which finishes last and
			// has no window at all).
			exT := comm.RingAllReduceOver(ring, sts[s].WeightBytes, replicas, backend)
			stall := exT
			if o.Phased {
				stall = exT - window
				if stall < 0 {
					stall = 0
				}
			}
			if stall > c.exchangeStall {
				c.exchangeStall = stall
			}
			if s == sb {
				c.bd.Busy.Network += exT
			}
			window += sts[s].Bwd + sts[s].Recompute
		}
	}
	c.bd.ExchangeStall = c.exchangeStall
	c.bd.Update = c.update
	return c
}

// Pipeline evaluates GPipe-style pipeline parallelism: the transformer
// splits into `stages` balanced layer groups (one GPU each), gpus/stages
// replicas train data-parallel, and each per-replica batch runs as
// `micro` micro-batches filling and draining the pipeline. o.Checkpoint
// enables per-stage rematerialization (GPipe's memory regime),
// o.Phased overlaps the per-stage gradient exchange with the drain, and
// o.Precision selects the training regime. This is the analytic closed
// form; the planned backend simulates the bottleneck stage per
// micro-batch (see planned_pipeline.go).
func Pipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*Result, error) {
	return evalPipeline(nil, cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
}

// evalPipeline is the pipeline on either backend (pe == nil: analytic):
// the shared precheck, then pipelineCost's closed form or the simulated
// bottleneck stage closed by pipelineCost's other terms (stageIter).
func evalPipeline(pe *Planned, cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*Result, error) {
	sts, sh, bad, err := pipelineSetup(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
	if err != nil || bad != nil {
		return pe.stamp(bad), err
	}
	replicas := gpus / stages
	c := pipelineCost(sts, cl, stages, replicas, micro, o)
	return pe.finish(sh, false, func() (unit.Seconds, *Breakdown) {
		return c.iter(), c.breakdown()
	}, func() (unit.Seconds, *Breakdown, *PlanExport, error) {
		return pe.stageIter(sts, c, cl, stages, replicas, micro, o)
	}), nil
}

// pipelineBudget returns the device memory available to one stage's
// in-flight activations (used by the planned backend's simulation).
func pipelineBudget(st pipeStage, cl hw.Cluster, o HybridOptions) unit.Bytes {
	b := budget(cl) - st.fixedBytes(o)
	if b < 0 {
		b = 0
	}
	return b
}
