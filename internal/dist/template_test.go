package dist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/tensor"
	"karma/internal/topo"
	"karma/internal/unit"
)

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstFresh pins one grid point's templated lowering to the
// per-call reference: lower (on a fresh scratch, through pe's templates)
// must yield op for op what a fresh Compile of the reference plan
// yields — every sim.Op field, durations bit for bit — and simulating
// both under budget must give equal timelines and breakdowns, or
// byte-identical errors.
func checkAgainstFresh(t testing.TB, what string, pe *Planned, lower func(*planScratch) (lowered, error), ref func() (*plan.Plan, error), budget unit.Bytes) {
	t.Helper()
	sc := new(planScratch)
	lw, err := lower(sc)
	pl, rerr := ref()
	var c *plan.Compiled
	if rerr == nil {
		c, rerr = pl.Compile()
	}
	if errText(err) != errText(rerr) {
		t.Errorf("%s: lowering error %q, fresh %q", what, errText(err), errText(rerr))
		return
	}
	if err != nil {
		return
	}
	if lw.t == nil {
		t.Fatalf("%s: lowered without a template", what)
	}
	if len(lw.ops) != len(c.Ops) {
		t.Errorf("%s: %d patched ops, fresh compile has %d", what, len(lw.ops), len(c.Ops))
		return
	}
	for i := range c.Ops {
		a, b := lw.ops[i], c.Ops[i]
		if math.Float64bits(float64(a.Duration)) != math.Float64bits(float64(b.Duration)) || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: op %d = %+v, fresh compile %+v", what, i, a, b)
			return
		}
		if lw.kind(i) != c.PlanOps[i].Kind {
			t.Errorf("%s: op %d kind %v, fresh %v", what, i, lw.kind(i), c.PlanOps[i].Kind)
			return
		}
	}
	tl, err := pe.run(sc, lw, budget)
	_, ftl, ferr := pl.Simulate(budget)
	if errText(err) != errText(ferr) {
		t.Errorf("%s: simulation error %q, fresh %q", what, errText(err), errText(ferr))
		return
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(*tl, *ftl) {
		t.Errorf("%s: timelines differ (makespan %v, fresh %v)", what, tl.Makespan, ftl.Makespan)
		return
	}
	got := timelineBreakdown(lw.ops, lw.kind, tl, new(breakdownBuf))
	want := timelineBreakdown(c.Ops, func(i int) plan.Kind { return c.PlanOps[i].Kind }, ftl, new(breakdownBuf))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: breakdown %+v, fresh %+v", what, got, want)
	}
}

// checkReplica pins one KARMA-DP grid point (skipped when the replica
// has no schedule: that cell falls back to the closed form).
func checkReplica(t testing.TB, pe *Planned, g *graph.Graph, cl hw.Cluster, gpus, batch int, o KARMAOptions) bool {
	p, err := replicaProfile(g, cl.Node, batch, o.Precision.DType())
	if err != nil {
		return false
	}
	gs := 1.0
	if o.ZeROShard {
		gs = 1 / float64(gpus)
	}
	s, err := pe.replicaSchedule(p, gs)
	if err != nil {
		return false
	}
	what := fmt.Sprintf("karma-dp %s gpus=%d batch=%d topo=%s %+v", g.Name(), gpus, batch, cl.Topo().Name, o)
	checkAgainstFresh(t, what, pe,
		func(sc *planScratch) (lowered, error) { return pe.lowerReplica(sc, s, cl, gpus, o) },
		func() (*plan.Plan, error) { return refReplicaPlan(s, cl, gpus, o) },
		s.Budget)
	return true
}

// checkHybrid pins one MP+DP (or ZeRO) grid point (skipped when the
// shared precheck rejects it).
func checkHybrid(t testing.TB, pe *Planned, cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, batch int, zero bool, o HybridOptions) bool {
	if zero {
		o.Phased = true
	}
	shard, p, s, bad, err := hybridSetup(cfg, cl, mp, gpus, batch, 1, zero, o)
	if err != nil || bad != nil {
		return false
	}
	replicas := gpus / mp
	what := fmt.Sprintf("hybrid %s mp=%d gpus=%d batch=%d zero=%v topo=%s %+v", cfg.Name, mp, gpus, batch, zero, cl.Topo().Name, o)
	checkAgainstFresh(t, what, pe,
		func(sc *planScratch) (lowered, error) {
			return pe.lowerHybrid(sc, cfg, shard, p, s, cl, mp, replicas, zero, o)
		},
		func() (*plan.Plan, error) {
			return refBuildHybridPlan(cfg, shard, p, s, cl, mp, replicas, zero, o, new(stageArena), new(stageArena))
		},
		s.Budget)
	return true
}

// NewShapeChecker returns an evaluator that answers through a fresh
// planned evaluator and first pins every KARMA-DP and MP+DP/ZeRO grid
// point it is asked to the per-call reference (checkReplica,
// checkHybrid), plus a count of the points it pinned. The panel test in
// template_panels_test.go drives it through the experiments panels.
func NewShapeChecker(t testing.TB) (Evaluator, func() int64) {
	c := &shapeChecker{Planned: NewPlanned(), t: t}
	return c, c.checked.Load
}

type shapeChecker struct {
	*Planned
	t       testing.TB
	checked atomic.Int64
}

func (c *shapeChecker) KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, batch, samples int, o KARMAOptions) (*Result, error) {
	if g != nil && validateRun(cl, gpus, batch, samples) == nil && checkReplica(c.t, c.Planned, g, cl, gpus, batch, o) {
		c.checked.Add(1)
	}
	return c.Planned.KARMADataParallel(g, cl, gpus, batch, samples, o)
}

func (c *shapeChecker) MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, batch, samples int, o HybridOptions) (*Result, error) {
	if checkHybrid(c.t, c.Planned, cfg, cl, mp, gpus, batch, false, o) {
		c.checked.Add(1)
	}
	return c.Planned.MegatronHybrid(cfg, cl, mp, gpus, batch, samples, o)
}

func (c *shapeChecker) ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, batch, samples int, o HybridOptions) (*Result, error) {
	if checkHybrid(c.t, c.Planned, cfg, cl, mp, gpus, batch, true, o) {
		c.checked.Add(1)
	}
	return c.Planned.ZeRO(cfg, cl, mp, gpus, batch, samples, o)
}

// TestTemplatesMatchFreshLoweringSeeded pins seeded serve-like
// configurations — every Megatron config, 8 to 4096 GPUs, the flat, ABCI
// and 2:1 fat-tree fabrics, both precisions, checkpointing on and off,
// UpdateOnDevice and ZeROShard replicas, bulk and phased MP+DP, ZeRO —
// to the per-call reference, on one evaluator so later points hit the
// templates earlier ones built.
func TestTemplatesMatchFreshLoweringSeeded(t *testing.T) {
	pe := NewPlanned()
	rng := rand.New(rand.NewSource(7))
	cfgs := model.MegatronConfigs()
	gpuChoices := []int{8, 16, 64, 128, 256, 512, 1024, 2048}
	var topos []topo.Topology
	for _, name := range []string{"flat", "abci", "fattree:2"} {
		tp, err := topo.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, tp)
	}
	n := 60
	if testing.Short() {
		n = 20
	}
	checked := 0
	for i := 0; i < n; i++ {
		cfg := cfgs[rng.Intn(len(cfgs))]
		cl := hw.ABCI().WithTopology(topos[rng.Intn(len(topos))])
		gpus := gpuChoices[rng.Intn(len(gpuChoices))]
		prec := []tensor.Precision{tensor.FP32Training, tensor.MixedFP16}[rng.Intn(2)]
		ko := KARMAOptions{UpdateOnDevice: rng.Intn(2) == 0, ZeROShard: rng.Intn(2) == 0, Precision: prec}
		kBatch := 1 + rng.Intn(8)
		mp := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		if mp > gpus {
			mp = gpus
		}
		ho := HybridOptions{Phased: rng.Intn(2) == 0, Checkpoint: rng.Intn(2) == 0, Precision: prec}
		hBatch, zero := 1+rng.Intn(16), rng.Intn(2) == 0
		karmaDP := rng.Intn(2) == 0
		// Each draw also runs at twice the GPUs and on another fabric, so
		// later points patch the template the first built whenever the
		// shape allows (a ZeRO shard's schedule changes with the GPU
		// count; its fabric changes only durations).
		other := hw.ABCI().WithTopology(topos[rng.Intn(len(topos))])
		for _, pt := range []struct {
			cl   hw.Cluster
			gpus int
		}{{cl, gpus}, {cl, 2 * gpus}, {other, gpus}} {
			if karmaDP {
				if checkReplica(t, pe, CachedTransformer(cfg), pt.cl, pt.gpus, kBatch, ko) {
					checked++
				}
			} else if checkHybrid(t, pe, cfg, pt.cl, mp, pt.gpus, hBatch, zero, ho) {
				checked++
			}
		}
	}
	if checked < n/2 {
		t.Errorf("only %d of %d seeded configurations reached the planned lowering", checked, n)
	}
	if s := pe.templates.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Errorf("template cache %+v: want both builds and reuse", s)
	}
}

// TestTemplateSlotsAtOtherReplicaCounts patches one ZeRO shard
// schedule at several replica counts. The panels never do this — a ZeRO
// shard's budget, hence its schedule, changes with the replica count —
// so it is the only check of the update slot, which varies only with
// the ZeRO optimizer partition.
func TestTemplateSlotsAtOtherReplicaCounts(t *testing.T) {
	pe := NewPlanned()
	cl := hw.ABCI()
	cfg := model.MegatronConfigs()[1]
	const mp = 2
	o := HybridOptions{Phased: true, Checkpoint: true}
	shard, p, s, bad, err := hybridSetup(cfg, cl, mp, 64, 4, 1, true, o)
	if err != nil || bad != nil {
		t.Fatalf("setup: %v %+v", err, bad)
	}
	for _, replicas := range []int{32, 8, 512} {
		checkAgainstFresh(t, fmt.Sprintf("zero replicas=%d", replicas), pe,
			func(sc *planScratch) (lowered, error) {
				return pe.lowerHybrid(sc, cfg, shard, p, s, cl, mp, replicas, true, o)
			},
			func() (*plan.Plan, error) {
				return refBuildHybridPlan(cfg, shard, p, s, cl, mp, replicas, true, o, new(stageArena), new(stageArena))
			},
			s.Budget)
	}
	if st := pe.templates.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("template cache %+v, want one shape built and patched twice", st)
	}
}

// TestTemplateSimulationErrorMatchesFresh: a patched template that
// cannot run reports byte for byte the error a fresh lowering reports —
// here every shape simulated under a budget no allocation fits.
func TestTemplateSimulationErrorMatchesFresh(t *testing.T) {
	pe := NewPlanned()
	cl := hw.ABCI()
	cfg := model.MegatronConfigs()[2]
	p, err := replicaProfile(CachedTransformer(cfg), cl.Node, 4, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pe.replicaSchedule(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	const budget = unit.Bytes(1)
	for _, gpus := range []int{64, 512} {
		o := KARMAOptions{UpdateOnDevice: true}
		sc := new(planScratch)
		lw, err := pe.lowerReplica(sc, s, cl, gpus, o)
		if err != nil {
			t.Fatal(err)
		}
		_, err = pe.run(sc, lw, budget)
		pl, rerr := refReplicaPlan(s, cl, gpus, o)
		if rerr != nil {
			t.Fatal(rerr)
		}
		_, _, ferr := pl.Simulate(budget)
		if err == nil || errText(err) != errText(ferr) {
			t.Errorf("gpus=%d: patched template error %q, fresh %q", gpus, errText(err), errText(ferr))
		}
	}
	cfg = model.MegatronConfigs()[0]
	shard, hp, hs, bad, err := hybridSetup(cfg, cl, 4, 512, 4, 1, true, HybridOptions{Phased: true})
	if err != nil || bad != nil {
		t.Fatalf("hybrid setup: %v %+v", err, bad)
	}
	sc := new(planScratch)
	o := HybridOptions{Phased: true}
	lw, err := pe.lowerHybrid(sc, cfg, shard, hp, hs, cl, 4, 128, true, o)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pe.run(sc, lw, budget)
	pl, rerr := refBuildHybridPlan(cfg, shard, hp, hs, cl, 4, 128, true, o, new(stageArena), new(stageArena))
	if rerr != nil {
		t.Fatal(rerr)
	}
	_, _, ferr := pl.Simulate(budget)
	if err == nil || errText(err) != errText(ferr) {
		t.Errorf("zero: patched template error %q, fresh %q", errText(err), errText(ferr))
	}
}

// TestTemplateCacheBounded: the template memo holds at most
// templateLimit shapes and counts toward CacheStats.
func TestTemplateCacheBounded(t *testing.T) {
	pe := NewPlanned()
	for i := 0; i < templateLimit+3; i++ {
		pe.templates.Do(shapeKey{mp: i}, func() (*shapeTemplate, error) { return &shapeTemplate{}, nil })
	}
	s := pe.templates.Stats()
	if s.Entries != templateLimit || s.Evictions != 3 {
		t.Errorf("template cache %+v, want %d entries and 3 evictions", s, templateLimit)
	}
	if c := pe.CacheStats(); c.Misses != uint64(templateLimit+3) {
		t.Errorf("CacheStats %+v does not count the template misses", c)
	}
}
