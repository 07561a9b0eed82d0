package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"karma/internal/baseline"
	"karma/internal/experiments"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/sim"
)

// point is one Fig. 5 point: a zoo model profiled at one batch size.
type point struct {
	Model   string `json:"model"`
	Batch   int    `json:"batch"`
	MaxOpen int    `json:"max_open"`
}

// singlePoints draws the workload's points: for each of the six Fig. 5
// models as many batches as the paper's grid has, uniformly from the
// grid's range, then shuffles the whole list.
func singlePoints(seed int64) []point {
	rng := rand.New(rand.NewSource(seed))
	var pts []point
	for _, w := range experiments.Fig5Workloads() {
		lo, hi := w.Batches[0], w.Batches[len(w.Batches)-1]
		for range w.Batches {
			pts = append(pts, point{Model: w.Model, Batch: lo + rng.Intn(hi-lo+1), MaxOpen: w.MaxOpen})
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// singleGPU runs Fig. 5 points through the public single-GPU API,
// timing each layer when traced.
type singleGPU struct {
	node    hw.Node
	factors map[string]float64
	tr      *tracer

	// Counters the traced run turns into per-layer metrics.
	profiles, blocks, planCalls, infeasible, compiles, planOps, simEvents int
}

// resetCounters starts the per-layer counters afresh.
func (s *singleGPU) resetCounters() {
	s.profiles, s.blocks, s.planCalls, s.infeasible, s.compiles, s.planOps, s.simEvents = 0, 0, 0, 0, 0, 0, 0
}

// newSingleGPU calibrates each model's activation overhead the way the
// Fig. 5 panels do (experiments.CalibratedOverhead).
func newSingleGPU() (*singleGPU, error) {
	s := &singleGPU{node: hw.ABCINode(), factors: map[string]float64{}}
	for _, w := range experiments.Fig5Workloads() {
		f, err := experiments.CalibratedOverhead(w, s.node)
		if err != nil {
			return nil, err
		}
		s.factors[w.Model] = f
	}
	return s, nil
}

var baselineSpans = map[baseline.Method]string{
	baseline.InCore:       "baseline.in_core",
	baseline.VDNNPP:       "baseline.vdnnpp",
	baseline.SuperNeurons: "baseline.superneurons",
	baseline.Checkmate:    "baseline.checkmate",
}

// run evaluates one point with every Fig. 5 method and returns the
// results in baseline.Methods() order. Untraced, every method goes
// through baseline.Run, the program's own path; traced, the KARMA
// methods run layer by layer so each layer gets its span.
func (s *singleGPU) run(pt point) ([]*baseline.Result, error) {
	tr := s.tr
	sp := tr.begin("model.build")
	g, err := model.Build(pt.Model)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("profiler.new")
	p, err := profiler.New(g, s.node, profiler.Options{Batch: pt.Batch, MaxOpen: pt.MaxOpen, ActOverhead: s.factors[pt.Model]})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s.profiles++
	s.blocks += len(p.Blocks)
	var out []*baseline.Result
	for _, m := range baseline.Methods() {
		var r *baseline.Result
		switch {
		case tr != nil && (m == baseline.KARMA || m == baseline.KARMARecompute):
			r, err = s.karma(p, m)
		default:
			sp = tr.begin(baselineSpans[m])
			r, err = baseline.Run(m, p)
			tr.end(sp)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// karma runs one KARMA method layer by layer — Opt-1/Opt-2 search, plan
// build, compile, simulate — producing what baseline.Run returns for it
// (verify holds the two equal).
func (s *singleGPU) karma(p *profiler.Profile, m baseline.Method) (*baseline.Result, error) {
	tr := s.tr
	infeasible := func(err error) (*baseline.Result, error) {
		s.infeasible++
		return &baseline.Result{Method: m, Reason: err.Error()}, nil
	}
	s.planCalls++
	sp := tr.begin("karma.plan")
	sched, err := karma.Plan(p, karma.Options{DisableRecompute: m == baseline.KARMA})
	tr.end(sp)
	if err != nil {
		return infeasible(err)
	}
	sp = tr.begin("plan.build")
	pl, err := karma.BuildPlan(sched)
	tr.end(sp)
	if err != nil {
		return infeasible(err)
	}
	sp = tr.begin("plan.compile")
	c, err := pl.Compile()
	tr.end(sp)
	if err != nil {
		return infeasible(err)
	}
	s.compiles++
	s.planOps += len(c.Ops)
	sp = tr.begin("sim.run")
	tl, err := sim.Run(c.Ops, sched.Budget)
	tr.end(sp)
	if err != nil {
		return infeasible(fmt.Errorf("plan %s: %w", pl.Name, err))
	}
	s.simEvents += len(c.Ops)
	sp = tr.begin("karma.report")
	defer tr.end(sp)
	return &baseline.Result{
		Method:       m,
		Feasible:     true,
		IterTime:     tl.Makespan,
		Throughput:   float64(p.Opts.Batch) / float64(tl.Makespan),
		Occupancy:    tl.Occupancy(c.Ops),
		ComputeStall: tl.ComputeIdle(c.Ops),
		PeakMem:      tl.PeakMem,
		BwdTrace:     karma.TraceBackward(c, tl),
	}, nil
}

// checkSingle validates a point's results against the invariants every
// simulated verdict must hold, and returns their canonical rendering.
func checkSingle(rs []*baseline.Result) ([]byte, error) {
	for _, r := range rs {
		if !r.Feasible {
			if r.Reason == "" {
				return nil, fmt.Errorf("%s: infeasible without a reason", r.Method)
			}
			continue
		}
		for _, v := range []struct {
			name string
			x    float64
		}{{"iter_time", float64(r.IterTime)}, {"throughput", r.Throughput}, {"occupancy", r.Occupancy}, {"peak_mem", float64(r.PeakMem)}} {
			if !(v.x > 0) || math.IsInf(v.x, 0) {
				return nil, fmt.Errorf("%s: %s = %v, want finite and positive", r.Method, v.name, v.x)
			}
		}
		if r.Occupancy > 1+1e-9 {
			return nil, fmt.Errorf("%s: occupancy %v > 1", r.Method, r.Occupancy)
		}
		if st := float64(r.ComputeStall); st < 0 || st > float64(r.IterTime)*(1+1e-9) {
			return nil, fmt.Errorf("%s: compute stall %v outside [0, iter %v]", r.Method, r.ComputeStall, r.IterTime)
		}
	}
	return json.Marshal(rs)
}

// singleState is the workload state built at set-up.
type singleState struct {
	gpu *singleGPU
	pts []point
	// first holds each point's first rendering; repeats must match.
	first map[int][32]byte
}

// setupSingle generates the inputs and runs the warm-up pass: the cold
// pass of this process, since the single-GPU path keeps no caches but
// the process still starts cold.
func setupSingle(cfg *config, acct *accounting) (*singleState, float64, error) {
	gpu, err := newSingleGPU()
	if err != nil {
		return nil, 0, err
	}
	st := &singleState{gpu: gpu, pts: singlePoints(cfg.seed), first: map[int][32]byte{}}
	t0 := time.Now()
	for i := range st.pts {
		st.op(i, i, acct)
	}
	return st, time.Since(t0).Seconds(), nil
}

// op runs point i and checks it; it returns the op's duration, which
// the check is not part of. opID names the op in the trace.
func (st *singleState) op(i, opID int, acct *accounting) time.Duration {
	sp := st.gpu.tr.beginOp("single.point", opID)
	t0 := time.Now()
	rs, err := st.gpu.run(st.pts[i])
	d := time.Since(t0)
	st.gpu.tr.end(sp)
	if err == nil {
		err = st.check(i, rs)
	}
	if err != nil {
		err = fmt.Errorf("point %s@%d: %w", st.pts[i].Model, st.pts[i].Batch, err)
	}
	acct.op(err)
	return d
}

func (st *singleState) check(i int, rs []*baseline.Result) error {
	b, err := checkSingle(rs)
	if err != nil {
		return err
	}
	h := sha256.Sum256(b)
	if prev, ok := st.first[i]; ok && prev != h {
		return fmt.Errorf("repeated point rendered differently")
	} else if !ok {
		st.first[i] = h
	}
	return nil
}

func runSingle(cfg *config) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	st, cold, err := setupSingle(cfg, &out.acct)
	if err != nil {
		return nil, err
	}
	setup := timeSinceStart()

	if cfg.trace {
		var untraced, traced loopStats
		var m memWindow
		st.measure(cfg.seconds/2, minSamples, &untraced, &memWindow{}, &out.acct)
		st.gpu.tr = newTracer()
		st.gpu.resetCounters()
		st.measure(cfg.seconds/2, minSamples, &traced, &m, &out.acct)
		spans := st.gpu.tr.snapshot()
		singleLayers(out, spans, st.gpu, m)
		out.layers["bench.trace_overhead_pct"] = 100 * (ratio(untraced.opsPerS(), traced.opsPerS()) - 1)
		if err := writeTraceArtifacts(cfg, out, [][]span{spans}, map[string]bool{"single.point": true}); err != nil {
			return nil, err
		}
	} else {
		// The window is cut into segments with a fresh set-up process
		// after each, so the cold samples spread over the run.
		var l loopStats
		var m memWindow
		setups, colds := []float64{setup}, []float64{cold}
		for seg := 0; seg < segments; seg++ {
			st.measure(cfg.seconds/segments, minSamples/segments, &l, &m, &out.acct)
			s, c, err := freshSetup(cfg)
			if err != nil {
				return nil, err
			}
			setups, colds = append(setups, s), append(colds, c)
		}
		out.metrics = append(out.metrics,
			metric{Name: "setup_s", Value: median(setups), Unit: "s", Cache: "cold", Samples: len(setups), Note: "median over fresh processes: launch, inputs, calibration, warm-up pass"},
			metric{Name: "cold_pass_s", Value: median(colds), Unit: "s", Cache: "cold", Samples: len(colds), Note: "first pass over the points in a fresh process"},
			metric{Name: "warm_pass_s", Value: median(l.passes), Unit: "s", Cache: "warm", Samples: len(l.passes), Note: "median pass over the points after warm-up"},
		)
		out.metrics = append(out.metrics, l.opMetrics("point", "p90")...)
		out.metrics = append(out.metrics,
			metric{Name: "alloc_kb_per_op", Value: m.allocKBPerOp(), Unit: "KB", Cache: "warm", Samples: m.ops},
			metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", Cache: "warm", Samples: 1},
		)
	}
	t0 := time.Now()
	st.verify(&out.acct)
	out.notes = append(out.notes, fmt.Sprintf("verified every point against baseline.Run and the Fig. 5 golden panels in %.2fs", time.Since(t0).Seconds()))
	return out, nil
}

// verify runs the checks too costly for the timed loop: the layer-by-
// layer KARMA path against baseline.Run for every distinct point, and
// the seed-independent Fig. 5 panels against their reference rendering.
func (st *singleState) verify(acct *accounting) {
	for i, pt := range st.pts {
		g, err := model.Build(pt.Model)
		if err != nil {
			acct.fail(err)
			continue
		}
		p, err := profiler.New(g, st.gpu.node, profiler.Options{Batch: pt.Batch, MaxOpen: pt.MaxOpen, ActOverhead: st.gpu.factors[pt.Model]})
		if err != nil {
			acct.fail(err)
			continue
		}
		for _, m := range []baseline.Method{baseline.KARMA, baseline.KARMARecompute} {
			want, err := baseline.Run(m, p)
			if err != nil {
				acct.fail(err)
				continue
			}
			got, _ := st.gpu.karma(p, m)
			if wb, gb := mustJSON(want), mustJSON(got); !bytes.Equal(wb, gb) {
				acct.fail(fmt.Errorf("point %d %s@%d %s: layer-by-layer KARMA differs from baseline.Run", i, pt.Model, pt.Batch, m))
			}
		}
	}
	b, err := fig5Rendering(st.gpu.node)
	if err == nil {
		err = compareGolden(fig5Golden, b)
	}
	if err != nil {
		acct.fail(err)
	}
}

// fig5Golden is the golden file of the Fig. 5 panels.
const fig5Golden = "fig5.txt"

// fig5Rendering renders the seed-independent Fig. 5 panels the way
// karma-bench prints them.
func fig5Rendering(node hw.Node) ([]byte, error) {
	panels, err := experiments.Figure5(node)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	for _, p := range panels {
		p.Table().WriteTo(&b)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "average speedup over SOTA out-of-core/recompute methods: %.2fx (paper: 1.52x)\n", experiments.AverageSpeedup(panels))
	return b.Bytes(), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// loopStats accumulate timed closed-loop measurements.
type loopStats struct {
	lat    []float64 // op latencies, ms
	passes []float64 // full passes over the inputs, s
	// rates are ops per second of op time, one per segment or
	// process; their median is the throughput, so one slow stretch of
	// the machine does not move it.
	rates []float64
}

func (l loopStats) opsPerS() float64 { return median(l.rates) }

// memWindow accumulates the allocation accounting of timed loops; mem
// holds the last loop's runtime snapshots.
type memWindow struct {
	ops    int
	allocB uint64
	mem    [2]memSnap
}

func (m *memWindow) add(a, b memSnap, ops int) {
	m.ops += ops
	m.allocB += b.totalAlloc - a.totalAlloc
	m.mem = [2]memSnap{a, b}
}

func (m memWindow) allocKBPerOp() float64 {
	return ratio(float64(m.allocB)/1024, float64(m.ops))
}

// opMetrics reports throughput, median and tail latency of the loop.
func (l loopStats) opMetrics(what, tailName string) []metric {
	want := map[string]float64{"p90": 90, "p99": 99}[tailName]
	v, used, err := tail(l.lat, want)
	note := fmt.Sprintf("%s, percentile used p%g", what, used)
	if err != nil {
		note = err.Error()
	}
	return []metric{
		{Name: "ops_per_s", Value: l.opsPerS(), Unit: "1/s", Cache: "warm", Samples: len(l.lat), Note: what + "s per second, median over segments"},
		{Name: "op_p50_ms", Value: percentile(l.lat, 50), Unit: "ms", Cache: "warm", Samples: len(l.lat), Note: what},
		{Name: "op_tail_ms", Value: v, Unit: "ms", Cache: "warm", Samples: len(l.lat), Note: note},
	}
}

const (
	// minSamples is the loop length that lets a p90 tail satisfy the
	// ≥10-beyond rule with margin.
	minSamples = 200
	// segments cut an untraced window; a fresh set-up process runs
	// after each.
	segments = 4
)

// measure runs the closed loop, one point at a time in seeded order,
// for at least secs and minN points, and whole passes only, adding to
// l and m.
func (st *singleState) measure(secs float64, minN int, l *loopStats, m *memWindow, acct *accounting) {
	m0 := readMem()
	n0 := len(l.lat)
	var busy float64
	t0 := time.Now()
	for time.Since(t0).Seconds() < secs || len(l.lat)-n0 < minN {
		var pass time.Duration
		for i := range st.pts {
			d := st.op(i, len(l.lat), acct)
			pass += d
			l.lat = append(l.lat, float64(d)/1e6)
		}
		l.passes = append(l.passes, pass.Seconds())
		busy += pass.Seconds()
	}
	l.rates = append(l.rates, float64(len(l.lat)-n0)/busy)
	m.add(m0, readMem(), len(l.lat)-n0)
}

// singleLayers turns a traced loop's spans and counters into the
// single-GPU per-layer metrics: layer times per point, plus the
// workload's shape counters.
func singleLayers(out *outcome, spans []span, gpu *singleGPU, m memWindow) {
	table, _ := selfTimes([][]span{spans})
	n := float64(m.ops)
	for _, l := range []string{"model.build", "profiler.new", "baseline.in_core", "baseline.vdnnpp",
		"baseline.superneurons", "baseline.checkmate", "karma.plan", "plan.build", "plan.compile", "sim.run"} {
		var ms float64
		if r := table[l]; r != nil {
			ms = r.TotalMS
		}
		out.layers[l+"_ms"] = ms / n
	}
	out.layers["karma.plan_calls"] = float64(gpu.planCalls) / n
	out.layers["karma.infeasible"] = float64(gpu.infeasible) / n
	out.layers["profiler.blocks"] = ratio(float64(gpu.blocks), float64(gpu.profiles))
	out.layers["plan.ops"] = ratio(float64(gpu.planOps), float64(gpu.compiles))
	if r := table["sim.run"]; r != nil {
		out.layers["sim.ns_per_event"] = ratio(r.TotalMS*1e6, float64(gpu.simEvents))
	}
	runtimeLayers(out.layers, m.mem[0], m.mem[1], m.ops)
}
