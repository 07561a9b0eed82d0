package dist

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/unit"
)

// checkBreakdown asserts the attribution contract on one feasible
// result: a non-nil breakdown whose seven components are non-negative
// and sum to IterTime within float-reassociation tolerance, with a
// sane occupancy. Infeasible results must carry none.
func checkBreakdown(t *testing.T, name string, r *Result) {
	t.Helper()
	if !r.Feasible {
		if r.Breakdown != nil {
			t.Errorf("%s: infeasible result carries a breakdown", name)
		}
		return
	}
	b := r.Breakdown
	if b == nil {
		t.Errorf("%s: feasible result has no breakdown", name)
		return
	}
	for _, c := range []struct {
		label string
		v     unit.Seconds
	}{
		{"compute", b.Compute}, {"recompute", b.Recompute},
		{"swap_stall", b.SwapStall}, {"exchange_stall", b.ExchangeStall},
		{"collective", b.Collective}, {"bubble", b.Bubble}, {"update", b.Update},
	} {
		if c.v < 0 {
			t.Errorf("%s: negative %s component %v", name, c.label, c.v)
		}
	}
	// The components must partition the iteration: both backends build
	// them from the same quantities that sum to IterTime, so only float
	// reassociation separates the two.
	sum, iter := float64(b.Components()), float64(r.IterTime)
	if tol := 1e-9*iter + 1e-12; math.Abs(sum-iter) > tol {
		t.Errorf("%s: components sum %v, IterTime %v (diff %g, tol %g)",
			name, b.Components(), r.IterTime, sum-iter, tol)
	}
	if b.Occupancy < 0 || b.Occupancy > 1 {
		t.Errorf("%s: occupancy %v outside [0,1]", name, b.Occupancy)
	}
	if b.Busy.Compute <= 0 {
		t.Errorf("%s: compute stream never busy", name)
	}
}

// TestBreakdownReconciliation is the tentpole property: every family ×
// backend × precision drawn from the seeded generator must attribute
// its full iteration time, through two entirely different derivations —
// the analytic phase algebra and the simulated-timeline gap
// attribution.
func TestBreakdownReconciliation(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 24
	}
	cases := propCases(n, 20260808)
	graphs := map[model.TransformerConfig]*graph.Graph{}
	evs := []Evaluator{Analytic{}, NewPlanned()}
	seen := map[string]int{}
	for _, c := range cases {
		for _, ev := range evs {
			r, err := c.run(ev, graphs)
			if err != nil {
				continue // argument errors are the property harness's concern
			}
			checkBreakdown(t, c.name+"/"+ev.Name(), r)
			if r.Feasible {
				seen[c.family+"/"+ev.Name()]++
			}
		}
	}
	// The draw must actually exercise every family on both backends;
	// a silent coverage collapse would make the property vacuous.
	for _, fam := range []string{"karma", "dp", "megatron", "zero", "pipeline"} {
		for _, ev := range evs {
			if seen[fam+"/"+ev.Name()] == 0 {
				t.Errorf("no feasible %s configuration reached backend %s", fam, ev.Name())
			}
		}
	}
}

// streamingConfig is a KARMA data-parallel configuration that does not
// fit in-core (weights stream), so the planned path runs the real
// partition search and simulation instead of delegating to the closed
// form.
func streamingConfig() (*graph.Graph, hw.Cluster) {
	cl := hw.ABCI()
	cl.Node.Device.MemCapacity = 4 * unit.GiB
	cfg := model.TransformerConfig{
		Name: "bd-stream", Hidden: 1024, Heads: 16, Layers: 24, Seq: 256, Vocab: 16384,
	}
	return model.Transformer(cfg), cl
}

// TestBreakdownStreamingKARMA pins the out-of-core attribution paths:
// swap traffic appears in the stream view and the update lands on the
// critical path, on both backends.
func TestBreakdownStreamingKARMA(t *testing.T) {
	g, cl := streamingConfig()
	for _, ev := range []Evaluator{Analytic{}, NewPlanned()} {
		r, err := ev.KARMADataParallel(g, cl, 16, 8, samples, KARMAOptions{})
		if err != nil {
			t.Fatalf("%s: %v", ev.Name(), err)
		}
		if !r.Feasible {
			t.Fatalf("%s: expected feasible streaming config: %s", ev.Name(), r.Reason)
		}
		checkBreakdown(t, "streaming/"+ev.Name(), r)
		b := r.Breakdown
		if b.Busy.H2D <= 0 && b.Busy.D2H <= 0 {
			t.Errorf("%s: streaming run shows no swap traffic: %+v", ev.Name(), b.Busy)
		}
		if b.Update <= 0 {
			t.Errorf("%s: streaming run shows no update time", ev.Name())
		}
	}
}

// TestExportKARMA exercises the export API on the streaming config: a
// fresh plan that round-trips through the JSON codec, a timeline whose
// op records match the compiled ops, and the evaluator's own verdict.
func TestExportKARMA(t *testing.T) {
	g, cl := streamingConfig()
	pe := NewPlanned()
	ex, err := pe.ExportKARMA(g, cl, 16, 8, samples, KARMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan == nil || ex.Compiled == nil || ex.Timeline == nil || ex.Result == nil {
		t.Fatalf("incomplete export: %+v", ex)
	}
	if len(ex.Compiled.Ops) == 0 || len(ex.Compiled.Ops) != len(ex.Timeline.Ops) {
		t.Fatalf("ops/timeline mismatch: %d vs %d", len(ex.Compiled.Ops), len(ex.Timeline.Ops))
	}
	if ex.Timeline.Makespan <= 0 || ex.Budget <= 0 {
		t.Fatalf("degenerate export: makespan %v, budget %v", ex.Timeline.Makespan, ex.Budget)
	}
	var buf bytes.Buffer
	if err := ex.Plan.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := plan.Decode(&buf); err != nil {
		t.Fatalf("exported plan does not round-trip: %v", err)
	}
	// The export must also work for a fully in-core configuration, where
	// the evaluator itself delegates to the closed form.
	big := hw.ABCI()
	ex2, err := pe.ExportKARMA(g, big, 16, 8, samples, KARMAOptions{})
	if err != nil {
		t.Fatalf("in-core export: %v", err)
	}
	if len(ex2.Compiled.Ops) == 0 {
		t.Fatal("in-core export has no ops")
	}
}

// TestExportKARMAIsCostedPlan: the exported KARMA plan is the plan the
// evaluator costed — its simulated makespan plus the replica's update
// cost is the verdict's IterTime, exactly — for every out-of-core
// variant of the replica derivation, in both the activation-streaming
// (4 GiB) and the weight-streaming (2 GiB) regime.
func TestExportKARMAIsCostedPlan(t *testing.T) {
	g, cl := streamingConfig()
	const gpus, batch = 16, 8
	for _, mem := range []unit.Bytes{4 * unit.GiB, 2 * unit.GiB} {
		cl.Node.Device.MemCapacity = mem
		for _, c := range []struct {
			name string
			o    KARMAOptions
		}{
			{"plain", KARMAOptions{}},
			{"zero_shard", KARMAOptions{ZeROShard: true}},
			{"update_on_device", KARMAOptions{UpdateOnDevice: true}},
		} {
			t.Run(fmt.Sprintf("%s/%s", mem, c.name), func(t *testing.T) {
				pe := NewPlanned()
				ex, err := pe.ExportKARMA(g, cl, gpus, batch, samples, c.o)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Result.Backend != "planned" {
					t.Fatalf("backend %q, want planned", ex.Result.Backend)
				}
				gs := 1.0
				if c.o.ZeROShard {
					gs = 1 / float64(gpus)
				}
				p, err := pe.profile(g, cl.Node, batch, c.o.Precision.DType())
				if err != nil {
					t.Fatal(err)
				}
				s, err := pe.replicaSchedule(p, gs)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := ex.Timeline.Makespan+updateCost(s, cl, c.o, gs), ex.Result.IterTime; got != want {
					t.Errorf("exported makespan + update = %v, costed IterTime %v", got, want)
				}
			})
		}
	}
}

// TestExportHybridAndPipeline exercises the remaining families and the
// infeasible-rejection contract.
func TestExportHybridAndPipeline(t *testing.T) {
	cl := hw.ABCI()
	cfgs := model.MegatronConfigs()
	pe := NewPlanned()
	o := HybridOptions{Checkpoint: true}

	hy, err := pe.ExportHybrid(cfgs[2], cl, 4, 256, 4, samples, false, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(hy.Compiled.Ops) == 0 || hy.Timeline.Makespan <= 0 {
		t.Fatalf("degenerate hybrid export: %+v", hy)
	}
	var buf bytes.Buffer
	if err := hy.Plan.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := plan.Decode(&buf); err != nil {
		t.Fatalf("hybrid plan does not round-trip: %v", err)
	}

	ze, err := pe.ExportHybrid(cfgs[1], cl, 2, 64, 2, samples, true, HybridOptions{Phased: true, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if ze.Result.Backend != "planned" {
		t.Errorf("zero export backend = %q", ze.Result.Backend)
	}

	pi, err := pe.ExportPipeline(cfgs[2], cl, 4, 256, 4, 4, samples, HybridOptions{Phased: true, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pi.Compiled.Ops) == 0 || pi.Timeline.Makespan <= 0 {
		t.Fatalf("degenerate pipeline export: %+v", pi)
	}

	// Infeasible configurations have no plan to export.
	if _, err := pe.ExportHybrid(cfgs[2], cl, 4, 10, 4, samples, false, o); err == nil {
		t.Error("export of an indivisible GPU count should fail")
	}
}
