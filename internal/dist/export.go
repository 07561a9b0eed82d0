package dist

import (
	"fmt"

	"karma/internal/comm"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// PlanExport is one configuration's full execution story: the compiled
// plan IR, its simulated timeline, the activation budget the simulation
// ran under, and the verdict the evaluator produced for the same
// configuration. The serve layer renders Plan as JSON (plan.Encode) and
// Timeline as a Chrome trace (trace.Collect/WriteChrome); everything
// here is freshly allocated — never aliased to the evaluator's pooled
// scratch — so it may outlive the call arbitrarily.
type PlanExport struct {
	Plan     *plan.Plan
	Compiled *plan.Compiled
	Timeline *sim.Timeline
	Budget   unit.Bytes
	Result   *Result
}

// exportable rejects configurations that have no plan to export,
// rendering the evaluator's infeasibility reason.
func exportable(r *Result) (*Result, error) {
	if !r.Feasible {
		return nil, fmt.Errorf("dist: no plan for an infeasible configuration: %s", r.Reason)
	}
	return r, nil
}

// ExportKARMA re-derives the planner-backed KARMA data-parallel plan for
// one configuration and simulates it for export. Unlike the evaluator —
// which delegates fully in-core configurations to the exact closed form
// — the export always runs the partition search (an in-core profile
// plans to all-resident blocks), so every feasible configuration yields
// a concrete plan. The schedule and profile come from the evaluator's
// caches and the lowering is plannedIter's own (replicaSchedule,
// replicaPlan); the plan, compilation and timeline are fresh.
func (pe *Planned) ExportKARMA(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*PlanExport, error) {
	res, err := pe.KARMADataParallel(g, cl, gpus, perReplicaBatch, samples, o)
	if err != nil {
		return nil, err
	}
	if res, err = exportable(res); err != nil {
		return nil, err
	}
	p, err := pe.profile(g, cl.Node, perReplicaBatch, o.Precision.DType())
	if err != nil {
		return nil, err
	}
	gs := 1.0
	if o.ZeROShard {
		gs = 1 / float64(gpus)
	}
	s, err := pe.replicaSchedule(p, gs)
	if err != nil {
		return nil, err
	}
	pl, err := replicaPlan(s, cl, gpus, o)
	if err != nil {
		return nil, err
	}
	c, tl, err := pl.Simulate(s.Budget)
	if err != nil {
		return nil, err
	}
	return &PlanExport{Plan: pl, Compiled: c, Timeline: tl, Budget: s.Budget, Result: res}, nil
}

// ExportHybrid re-derives the per-layer simulated MP+DP (or, with zero,
// ZeRO) shard plan for one configuration. The stage arenas are fresh —
// the evaluator's pooled scratch must never leak into a value that
// outlives the call.
func (pe *Planned) ExportHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, zero bool, o HybridOptions) (*PlanExport, error) {
	eval := pe.MegatronHybrid
	if zero {
		eval = pe.ZeRO
		o.Phased = true // ZeRO's exchange is phased by construction
	}
	res, err := eval(cfg, cl, mp, gpus, perReplicaBatch, samples, o)
	if err != nil {
		return nil, err
	}
	if res, err = exportable(res); err != nil {
		return nil, err
	}
	shard, p, s, bad, err := hybridSetup(cfg, cl, mp, gpus, perReplicaBatch, samples, zero, o)
	if err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, fmt.Errorf("dist: no plan for an infeasible configuration: %s", bad.Reason)
	}
	var ex, mpArena stageArena
	pl, err := buildHybridPlan(cfg, shard, p, s, cl, mp, gpus/mp, zero, o, &ex, &mpArena)
	if err != nil {
		return nil, err
	}
	c, tl, err := pl.Simulate(s.Budget)
	if err != nil {
		return nil, err
	}
	return &PlanExport{Plan: pl, Compiled: c, Timeline: tl, Budget: s.Budget, Result: res}, nil
}

// ExportPipeline re-derives the simulated bottleneck-stage plan of one
// pipeline configuration (the other stages contribute closed-form terms
// only and have no per-op schedule to export).
func (pe *Planned) ExportPipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*PlanExport, error) {
	res, err := pe.Pipeline(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
	if err != nil {
		return nil, err
	}
	if res, err = exportable(res); err != nil {
		return nil, err
	}
	sts, _, bad, err := pipelineSetup(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
	if err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, fmt.Errorf("dist: no plan for an infeasible configuration: %s", bad.Reason)
	}
	replicas := gpus / stages
	backend := comm.Pick(stages * replicas)
	wire, local := pipeWire(cl, stages, backend)
	sb, _ := bottleneckStage(sts, wire)
	st := sts[sb]
	pl := buildStagePlan(st, micro, wire, local, sb, len(sts))
	budget := pipelineBudget(st, cl, o)
	c, tl, err := pl.Simulate(budget)
	if err != nil {
		return nil, err
	}
	return &PlanExport{Plan: pl, Compiled: c, Timeline: tl, Budget: budget, Result: res}, nil
}
