package karma

import (
	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// BlockTrace records the simulated execution of one backward-phase op,
// the raw material of the paper's stall profile (Fig. 6).
type BlockTrace struct {
	Block    int
	Kind     plan.Kind
	Start    unit.Seconds
	End      unit.Seconds
	Stall    unit.Seconds
	Duration unit.Seconds
}

// Report is the simulated outcome of a schedule.
type Report struct {
	Plan *plan.Plan
	// IterTime is the makespan of one training iteration.
	IterTime unit.Seconds
	// Throughput in samples per second at the profile's batch size.
	Throughput float64
	// Occupancy is Eq. (1) measured on the simulated compute stream.
	Occupancy float64
	// ComputeStall is total idle on the compute stream inside the
	// iteration.
	ComputeStall unit.Seconds
	// PeakMem is the peak activation footprint observed.
	PeakMem unit.Bytes
	// BwdTrace lists backward and recompute ops in execution order.
	BwdTrace []BlockTrace
}

// Simulate lowers the schedule to the plan IR, runs the event simulator
// against the activation budget, and aggregates the outcome.
func Simulate(s *Schedule) (*Report, error) {
	pl, err := BuildPlan(s)
	if err != nil {
		return nil, err
	}
	c, tl, err := pl.Simulate(s.Budget)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Plan:         pl,
		IterTime:     tl.Makespan,
		Throughput:   float64(s.Profile.Opts.Batch) / float64(tl.Makespan),
		Occupancy:    tl.Occupancy(c.Ops),
		ComputeStall: tl.ComputeIdle(c.Ops),
		PeakMem:      tl.PeakMem,
	}
	rep.BwdTrace = TraceBackward(c, tl)
	return rep, nil
}

// TraceBackward extracts the backward-phase stall profile from a
// simulated plan: one entry per backward or recompute op, where Stall is
// the gap the compute pipeline sat idle before the op — the quantity
// Fig. 6 plots per layer.
func TraceBackward(c *plan.Compiled, tl *sim.Timeline) []BlockTrace {
	n := 0
	for i := range c.PlanOps {
		if k := c.PlanOps[i].Kind; k == plan.Bwd || k == plan.Recompute {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]BlockTrace, 0, n)
	var lastComputeEnd unit.Seconds
	for i, op := range c.PlanOps {
		onCompute := op.Kind == plan.Fwd || op.Kind == plan.Bwd ||
			op.Kind == plan.Recompute || op.Kind == plan.UpdateGPU
		if !onCompute {
			continue
		}
		r := tl.Ops[i]
		if op.Kind == plan.Bwd || op.Kind == plan.Recompute {
			stall := r.Start - lastComputeEnd
			if stall < 0 {
				stall = 0
			}
			out = append(out, BlockTrace{
				Block:    op.Block,
				Kind:     op.Kind,
				Start:    r.Start,
				End:      r.End,
				Stall:    stall,
				Duration: op.Duration,
			})
		}
		lastComputeEnd = r.End
	}
	return out
}
