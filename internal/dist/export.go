package dist

import (
	"fmt"
	"sync"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// PlanExport is one configuration's full execution story: the compiled
// plan IR, its simulated timeline, the activation budget the simulation
// ran under, and the verdict costed from that very timeline. The serve
// layer renders Plan as JSON (plan.Encode) and Timeline as a Chrome
// trace (trace.Collect/WriteChrome); nothing here aliases the
// evaluator's pooled scratch, so it may outlive the call arbitrarily.
type PlanExport struct {
	Plan     *plan.Plan
	Compiled *plan.Compiled
	Timeline *sim.Timeline
	Budget   unit.Bytes
	Result   *Result
}

// recordLog maps each result a recording evaluator returned to the plan
// behind it, or to the simulation error that made it fall back to the
// closed form.
type recordLog struct {
	mu  sync.Mutex
	log map[*Result]recording
}

type recording struct {
	ex  *PlanExport
	err error
}

// Recording returns an evaluator that shares pe's caches and observer
// and additionally records, for every result it returns, the plan,
// compilation, timeline and budget that result was costed on (see
// Recorded). A fully in-core KARMA configuration still returns the exact
// closed form; the recorded plan is the all-resident schedule the
// partition search derives for it. Safe for concurrent use.
func (pe *Planned) Recording() *Planned {
	rec := *pe
	rec.rec = &recordLog{log: map[*Result]recording{}}
	return &rec
}

// capture packages what one iteration simulated when pe is recording,
// and is nil otherwise.
func (pe *Planned) capture(pl *plan.Plan, c *plan.Compiled, tl *sim.Timeline, budget unit.Bytes) *PlanExport {
	if pe.rec == nil {
		return nil
	}
	return &PlanExport{Plan: pl, Compiled: c, Timeline: tl, Budget: budget}
}

// record logs the plan behind res (ex), or the simulation error that
// made res fall back (err), when pe is recording.
func (pe *Planned) record(res *Result, ex *PlanExport, err error) {
	if pe.rec == nil {
		return
	}
	if ex != nil {
		ex.Result = res
	}
	pe.rec.mu.Lock()
	pe.rec.log[res] = recording{ex: ex, err: err}
	pe.rec.mu.Unlock()
}

// Recorded returns the plan a recording evaluator costed res on. It
// takes an evaluator call's return values directly, passing an
// evaluation error through. An infeasible result has no plan; a result
// that fell back to the closed form reports the simulation error that
// caused the fallback.
func (pe *Planned) Recorded(res *Result, err error) (*PlanExport, error) {
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("dist: no plan for an infeasible configuration: %s", res.Reason)
	}
	var r recording
	ok := false
	if pe.rec != nil {
		pe.rec.mu.Lock()
		r, ok = pe.rec.log[res]
		pe.rec.mu.Unlock()
	}
	if !ok {
		return nil, fmt.Errorf("dist: no plan recorded for this %s result", res.Backend)
	}
	return r.ex, r.err
}

// ExportKARMA evaluates one KARMA data-parallel configuration and
// returns the plan it was costed on.
func (pe *Planned) ExportKARMA(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*PlanExport, error) {
	rec := pe.Recording()
	return rec.Recorded(rec.KARMADataParallel(g, cl, gpus, perReplicaBatch, samples, o))
}

// ExportHybrid evaluates one MP+DP (or, with zero, ZeRO) configuration
// and returns the shard plan it was costed on.
func (pe *Planned) ExportHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, zero bool, o HybridOptions) (*PlanExport, error) {
	rec := pe.Recording()
	if zero {
		return rec.Recorded(rec.ZeRO(cfg, cl, mp, gpus, perReplicaBatch, samples, o))
	}
	return rec.Recorded(rec.MegatronHybrid(cfg, cl, mp, gpus, perReplicaBatch, samples, o))
}

// ExportPipeline evaluates one pipeline configuration and returns the
// simulated bottleneck-stage plan it was costed on (the other stages
// contribute closed-form terms only and have no per-op schedule).
func (pe *Planned) ExportPipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*PlanExport, error) {
	rec := pe.Recording()
	return rec.Recorded(rec.Pipeline(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o))
}
