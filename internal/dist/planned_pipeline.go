package dist

import (
	"fmt"

	"karma/internal/comm"
	"karma/internal/hw"
	"karma/internal/plan"
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

// stageIter simulates the bottleneck stage's micro-batch loop and closes
// the iteration with c's fill/drain, exchange and update terms. The
// breakdown derives from the simulated timeline; the closed-form
// supplement lands on the components it represents (other stages'
// traversal and wires are pipeline bubble from the bottleneck's seat,
// the exchange stall and update on their own components), so the
// attribution still sums to the iteration time.
func (pe *Planned) stageIter(sts []pipeStage, c pipeCost, cl hw.Cluster, stages, replicas, micro int, o HybridOptions) (unit.Seconds, *Breakdown, *PlanExport, error) {
	wire, local := pipeWire(cl, stages, comm.Pick(stages*replicas))
	sb, _ := bottleneckStage(sts, wire)
	st := sts[sb]
	makespan, b, ex, err := pe.simulate(pipelineBudget(st, cl, o), func(sc *planScratch) (lowered, error) {
		return lowerFresh(sc, buildStagePlan(&sc.Builder, st, micro, wire, local, sb, len(sts)), nil)
	})
	if err != nil {
		return 0, nil, nil, err
	}

	// Closed-form supplement: the traversal through every other stage and
	// every boundary the simulation did not carry (both directions of the
	// bottleneck's adjacent boundaries ride inside the simulated plan),
	// plus the exchange stall and update shared with the analytic model.
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
	iter := makespan + supplement
	b.Bubble += bubble
	b.ExchangeStall += c.exchangeStall
	b.Update += c.update
	return iter, b.withOccupancy(iter), ex, nil
}

// buildStagePlan lowers one stage's GPipe micro-batch loop to the plan
// IR on bld (the plan aliases it until its next Reset). Blocks are
// micro-batches. Forward fill: each micro-batch's input
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
func buildStagePlan(bld *plan.Builder, st pipeStage, micro int, wire func(unit.Bytes) unit.Seconds, local bool, sb, stages int) *plan.Plan {
	sendK, recvK := plan.Send, plan.Recv
	if local {
		sendK, recvK = plan.SendLocal, plan.RecvLocal
	}
	tIn, tOut := wire(st.InBytes), wire(st.OutBytes)
	first := sb == 0
	last := sb == stages-1

	bld.Reset(fmt.Sprintf("pipeline/stage%d", sb), micro)
	if !first && tIn > 0 {
		bld.Stage(plan.Op{Kind: recvK, Block: 0, Duration: tIn})
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
		bld.BeginStage()
		bld.Add(fwd)
		if m+1 < micro && !first && tIn > 0 {
			// Prefetch the next micro-batch's boundary under this forward.
			bld.Add(plan.Op{Kind: recvK, Block: m + 1, Duration: tIn})
		}
		bld.EndStage()
		if !last && tOut > 0 {
			bld.Stage(plan.Op{Kind: sendK, Block: m, Duration: tOut})
		}
	}
	for m := micro - 1; m >= 0; m-- {
		if m == micro-1 && !last && tOut > 0 {
			bld.Stage(plan.Op{Kind: recvK, Block: m, Duration: tOut})
		}
		if st.Ckpt {
			bld.Stage(plan.Op{
				Kind: plan.Recompute, Block: m, Duration: st.Recompute,
				Alloc: st.ActBytes,
			})
		}
		bld.BeginStage()
		bld.Add(plan.Op{
			Kind: plan.Bwd, Block: m, Duration: st.Bwd,
			Free: st.InBytes + st.ActBytes,
		})
		if m > 0 && !last && tOut > 0 {
			// The previous micro-batch's gradient arrives under this
			// backward.
			bld.Add(plan.Op{Kind: recvK, Block: m - 1, Duration: tOut})
		}
		bld.EndStage()
		if !first && tIn > 0 {
			bld.Stage(plan.Op{Kind: sendK, Block: m, Duration: tIn})
		}
	}
	return bld.Plan()
}
