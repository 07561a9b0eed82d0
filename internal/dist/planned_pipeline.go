package dist

import (
	"fmt"

	"karma/internal/comm"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// This file is the planner-backed path for the pipeline-parallel
// baseline: the bottleneck stage's micro-batch loop is lowered to the
// plan IR with real stage-boundary Send/Recv ops on the wire stream
// (network, or NVLink when the pipeline packs inside one node) and
// simulated by internal/sim — so boundary transfers, per-micro-batch
// rematerialization and the capacity gating of in-flight activations
// interact exactly as scheduled. The fill/drain contribution of the
// other stages, the data-parallel exchange stall and the update are the
// same closed-form terms as the analytic backend (pipelineCost), so the
// two backends diverge only where the simulation adds fidelity.

// Pipeline implements Evaluator with the simulated bottleneck stage; a
// simulator failure on a configuration the shared precheck deems
// feasible falls back to the analytic closed form (the result keeps its
// "analytic" tag, Ckpt still recorded — the fallback contract).
func (pe *Planned) Pipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*Result, error) {
	sts, _, bad, err := pipelineSetup(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
	if err != nil {
		return nil, err
	}
	if bad != nil {
		bad.Backend = pe.Name()
		return bad, nil
	}
	replicas := gpus / stages
	r := func(iter unit.Seconds) *Result {
		res := finalize(iter, gpus, replicas*perReplicaBatch, samples)
		res.Ckpt = o.Checkpoint
		return res
	}
	iter, bd, err := pe.pipeIter(sts, cl, stages, replicas, micro, o)
	if err != nil {
		c := pipelineCost(sts, cl, stages, replicas, micro, o)
		res := r(c.iter()) // Backend stays "analytic": explicit fallback
		res.Breakdown = c.breakdown()
		return res, nil
	}
	res := r(iter)
	res.Backend = pe.Name()
	res.Breakdown = bd
	return res, nil
}

// pipeIter simulates the bottleneck stage's micro-batch loop and closes
// the iteration with the analytic fill/drain, exchange and update terms.
// The breakdown derives from the simulated timeline; the closed-form
// supplement lands on the components it represents (other stages'
// traversal and wires are pipeline bubble from the bottleneck's seat,
// the exchange stall and update on their own components), so the
// attribution still sums to the iteration time.
func (pe *Planned) pipeIter(sts []pipeStage, cl hw.Cluster, stages, replicas, micro int, o HybridOptions) (unit.Seconds, *Breakdown, error) {
	if pe.failSim {
		return 0, nil, errForcedFallback
	}
	backend := comm.Pick(stages * replicas)
	wire, local := pipeWire(cl, stages, backend)

	sb, _ := bottleneckStage(sts, wire)
	st := sts[sb]
	var pl *plan.Plan
	pe.timed("plan_build", func() {
		pl = buildStagePlan(st, micro, wire, local, sb, len(sts))
	})
	var cp *plan.Compiled
	var tl *sim.Timeline
	var err error
	pe.timed("simulate", func() {
		cp, tl, err = pl.Simulate(pipelineBudget(st, cl, o))
	})
	if err != nil {
		return 0, nil, err
	}

	// Closed-form supplement: the traversal through every other stage and
	// every boundary the simulation did not carry (both directions of the
	// bottleneck's adjacent boundaries ride inside the simulated plan),
	// plus the exchange stall and update shared with the analytic model.
	c := pipelineCost(sts, cl, stages, replicas, micro, o)
	supplement := c.exchangeStall + c.update
	var bubble unit.Seconds
	for s, other := range sts {
		if s == sb {
			continue
		}
		supplement += other.perMicro()
		bubble += other.perMicro()
		if s != sb-1 { // boundary s→s+1; sb's own two are simulated
			supplement += 2 * wire(other.OutBytes)
			bubble += 2 * wire(other.OutBytes)
		}
	}
	iter := tl.Makespan + supplement
	b := timelineBreakdown(cp, tl)
	b.Bubble += bubble
	b.ExchangeStall += c.exchangeStall
	b.Update += c.update
	return iter, b.withOccupancy(iter), nil
}

// buildStagePlan lowers one stage's GPipe micro-batch loop to the plan
// IR. Blocks are micro-batches. Forward fill: each micro-batch's input
// boundary arrives (Recv, overlapped with the previous micro-batch's
// compute), its forward runs (allocating the boundary plus — resident
// regime — its stored activations; a checkpointed stage drops them
// again), and its output boundary leaves (Send, overlapped with the next
// forward). Backward drain in reverse order: the output-boundary
// gradient arrives (overlapped with the previous backward), a
// checkpointed stage replays its forward, the backward frees the
// micro-batch's footprint, and the input-boundary gradient departs.
// Wire ops carry no memory (transfer buffers live in the headroom, like
// every collective op); the boundary tensor itself is charged to the
// forward compute that retains it.
func buildStagePlan(st pipeStage, micro int, wire func(unit.Bytes) unit.Seconds, local bool, sb, stages int) *plan.Plan {
	sendK, recvK := plan.Send, plan.Recv
	if local {
		sendK, recvK = plan.SendLocal, plan.RecvLocal
	}
	tIn, tOut := wire(st.InBytes), wire(st.OutBytes)
	first := sb == 0
	last := sb == stages-1

	pl := &plan.Plan{Name: fmt.Sprintf("pipeline/stage%d", sb), NumBlocks: micro}
	if !first && tIn > 0 {
		pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
			Kind: recvK, Block: 0, Duration: tIn,
		}}})
	}
	for m := 0; m < micro; m++ {
		fwd := plan.Op{
			Kind: plan.Fwd, Block: m, Duration: st.Fwd,
			Alloc: st.InBytes + st.ActBytes,
		}
		if st.Ckpt {
			// Rematerializing stage: internals drop at the end of the
			// micro-batch's forward; only the boundary input stays.
			fwd.Free = st.ActBytes
		}
		stg := plan.Stage{Ops: []plan.Op{fwd}}
		if m+1 < micro && !first && tIn > 0 {
			// Prefetch the next micro-batch's boundary under this forward.
			stg.Ops = append(stg.Ops, plan.Op{Kind: recvK, Block: m + 1, Duration: tIn})
		}
		pl.Stages = append(pl.Stages, stg)
		if !last && tOut > 0 {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: sendK, Block: m, Duration: tOut,
			}}})
		}
	}
	for m := micro - 1; m >= 0; m-- {
		if m == micro-1 && !last && tOut > 0 {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: recvK, Block: m, Duration: tOut,
			}}})
		}
		if st.Ckpt {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: plan.Recompute, Block: m, Duration: st.Recompute,
				Alloc: st.ActBytes,
			}}})
		}
		bwd := plan.Op{
			Kind: plan.Bwd, Block: m, Duration: st.Bwd,
			Free: st.InBytes + st.ActBytes,
		}
		stg := plan.Stage{Ops: []plan.Op{bwd}}
		if m > 0 && !last && tOut > 0 {
			// The previous micro-batch's gradient arrives under this
			// backward.
			stg.Ops = append(stg.Ops, plan.Op{Kind: recvK, Block: m - 1, Duration: tOut})
		}
		pl.Stages = append(pl.Stages, stg)
		if !first && tIn > 0 {
			pl.Stages = append(pl.Stages, plan.Stage{Ops: []plan.Op{{
				Kind: sendK, Block: m, Duration: tIn,
			}}})
		}
	}
	return pl
}
