package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

// warmPasses is the number of warm passes each fresh child runs after
// its cold pass.
const warmPasses = 2

// panelJob is one panel regeneration: a karma-bench cluster panel under
// one backend and precision.
type panelJob struct {
	Kind      string `json:"kind"` // fig8_megatron, fig8_turing, table4, table5, topo
	Config    int    `json:"config,omitempty"`
	Backend   string `json:"backend"`
	Precision string `json:"precision"`
}

// name is the job's golden-file stem.
func (j panelJob) name() string {
	s := j.Kind
	if j.Kind == "fig8_megatron" {
		s += fmt.Sprintf("%d", j.Config)
	}
	return s + "-" + j.Backend + "-" + j.Precision
}

// panelJobs lists every karma-bench cluster panel under both backends
// and both precisions (Table V has no precision knob: once per backend)
// in the seed's order.
func panelJobs(seed int64) []panelJob {
	var jobs []panelJob
	for _, b := range dist.BackendNames() {
		for _, p := range []string{"fp32", "fp16"} {
			for c := range model.MegatronConfigs() {
				jobs = append(jobs, panelJob{Kind: "fig8_megatron", Config: c, Backend: b, Precision: p})
			}
			for _, k := range []string{"fig8_turing", "table4", "topo"} {
				jobs = append(jobs, panelJob{Kind: k, Backend: b, Precision: p})
			}
		}
		jobs = append(jobs, panelJob{Kind: "table5", Backend: b, Precision: "fp32"})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// Panel GPU grids: the karma-serve /v1/sweep defaults, which extend
// karma-bench's fig8 grids to every Table IV configuration.
var (
	megatronGPUs = []int{128, 256, 512, 1024, 2048}
	turingGPUs   = []int{512, 1024, 2048}
)

const topoGPUs = 512

// runJob regenerates one panel and returns its text rendering (the
// karma-bench table) and its results for the invariant checks.
func runJob(j panelJob, ev dist.Evaluator, workers int) (text []byte, results []*dist.Result, raw any, err error) {
	cl := hw.ABCI()
	prec, err := tensor.ParsePrecision(j.Precision)
	if err != nil {
		return nil, nil, nil, err
	}
	fo := experiments.FamilyOptions{Ckpt: true, Precision: prec, Pipeline: true, Workers: workers}
	var b bytes.Buffer
	switch j.Kind {
	case "fig8_megatron", "fig8_turing":
		var p *experiments.Fig8Panel
		if j.Kind == "fig8_turing" {
			p, err = experiments.Figure8Turing(cl, turingGPUs, ev, fo)
		} else {
			p, err = experiments.Figure8Megatron(cl, j.Config, megatronGPUs, ev, fo)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		p.Table().WriteTo(&b)
		for _, r := range p.Rows {
			for _, m := range p.Methods {
				results = append(results, r.Results[m])
			}
		}
		raw = p
	case "table4":
		rows, err := experiments.TableIV(cl, ev, fo)
		if err != nil {
			return nil, nil, nil, err
		}
		experiments.TableIVTable(rows).WriteTo(&b)
		for _, r := range rows {
			results = append(results, r.Hybrid, r.KARMA, r.Pipeline)
		}
		raw = rows
	case "table5":
		sweeps, err := experiments.TableV(cl, ev, workers)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, name := range []string{"resnet50", "resnet200"} {
			experiments.TableVTable(name, sweeps[name]).WriteTo(&b)
			for _, r := range sweeps[name] {
				results = append(results, r.DP, r.KARMA)
			}
		}
		raw = sweeps
	case "topo":
		rows, err := experiments.TopologySweep(cl, topoGPUs, experiments.TopoLadder(), ev, fo)
		if err != nil {
			return nil, nil, nil, err
		}
		experiments.TopoTable(rows, topoGPUs, ev.Name()).WriteTo(&b)
		for _, r := range rows {
			results = append(results, r.ZeRO, r.KARMA, r.Combo)
		}
		raw = rows
	default:
		return nil, nil, nil, fmt.Errorf("unknown panel kind %q", j.Kind)
	}
	return b.Bytes(), results, raw, nil
}

// checkResult holds a distributed verdict to its invariants: a feasible
// result has finite, positive times and a breakdown whose components
// sum to IterTime; an infeasible one says why.
func checkResult(r *dist.Result) error {
	if r == nil {
		return fmt.Errorf("missing result")
	}
	if !r.Feasible {
		if r.Reason == "" {
			return fmt.Errorf("infeasible without a reason")
		}
		return nil
	}
	for _, v := range []struct {
		name string
		x    float64
	}{{"epoch_time_s", float64(r.EpochTime)}, {"iter_time_s", float64(r.IterTime)}, {"iter_per_sec", r.IterPerSec}} {
		if !(v.x > 0) || math.IsInf(v.x, 0) {
			return fmt.Errorf("%s = %v, want finite and positive", v.name, v.x)
		}
	}
	if r.Breakdown == nil {
		return fmt.Errorf("feasible result without a breakdown")
	}
	sum, iter := float64(r.Breakdown.Components()), float64(r.IterTime)
	if math.Abs(sum-iter) > 1e-9*iter+1e-12 {
		return fmt.Errorf("breakdown components sum to %v, iter_time_s is %v", sum, iter)
	}
	return nil
}

// checkJob checks one regenerated panel: every verdict's invariants,
// the text rendering against the golden table, and the exact JSON of
// the results against the golden digest.
func checkJob(j panelJob, text []byte, results []*dist.Result, raw any, digests map[string]string) error {
	for i, r := range results {
		if err := checkResult(r); err != nil {
			return fmt.Errorf("%s result %d: %w", j.name(), i, err)
		}
	}
	if err := compareGolden(j.name()+".txt", text); err != nil {
		return err
	}
	got, err := resultDigest(raw)
	if err != nil {
		return err
	}
	if want := digests[j.name()]; got != want {
		return fmt.Errorf("golden %s: result JSON digest %s, reference %s", j.name(), got[:12], shortDigest(want))
	}
	return nil
}

// resultDigest is the SHA-256 of a panel's results as JSON.
func resultDigest(raw any) (string, error) {
	b, err := json.Marshal(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	if d == "" {
		return "(none)"
	}
	return d
}

// digestFile maps each job to the SHA-256 of its results' JSON.
const digestFile = "digests.txt"

func loadDigests() (map[string]string, error) {
	b, err := os.ReadFile(goldenDir + "/" + digestFile)
	if err != nil {
		return nil, err
	}
	d := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 {
			d[f[0]] = f[1]
		}
	}
	return d, nil
}

// tracingEvaluator wraps a backend so every call is a span named
// dist.<family>.<backend>.
type tracingEvaluator struct {
	inner dist.Evaluator
	tr    *tracer
}

func (e tracingEvaluator) span(family string) int {
	return e.tr.begin("dist." + family + "." + e.inner.Name())
}

func (e tracingEvaluator) Name() string { return e.inner.Name() }

func (e tracingEvaluator) KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, b, samples int, o dist.KARMAOptions) (*dist.Result, error) {
	defer e.tr.end(e.span("karma_dp"))
	return e.inner.KARMADataParallel(g, cl, gpus, b, samples, o)
}

func (e tracingEvaluator) DataParallel(g *graph.Graph, cl hw.Cluster, gpus, b, samples int) (*dist.Result, error) {
	defer e.tr.end(e.span("dp"))
	return e.inner.DataParallel(g, cl, gpus, b, samples)
}

func (e tracingEvaluator) MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, b, samples int, o dist.HybridOptions) (*dist.Result, error) {
	defer e.tr.end(e.span("mp_dp"))
	return e.inner.MegatronHybrid(cfg, cl, mp, gpus, b, samples, o)
}

func (e tracingEvaluator) ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, b, samples int, o dist.HybridOptions) (*dist.Result, error) {
	defer e.tr.end(e.span("zero"))
	return e.inner.ZeRO(cfg, cl, mp, gpus, b, samples, o)
}

func (e tracingEvaluator) Pipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, b, micro, samples int, o dist.HybridOptions) (*dist.Result, error) {
	defer e.tr.end(e.span("pipeline"))
	return e.inner.Pipeline(cfg, cl, stages, gpus, b, micro, samples, o)
}

// passReport is what one fresh child measured: its set-up, one cold
// pass and the warm passes that follow on the same evaluators.
type passReport struct {
	SetupS float64   `json:"setup_s"`
	ColdS  float64   `json:"cold_s"`
	WarmS  []float64 `json:"warm_s"`
	// PanelMS are the warm passes' per-panel times.
	PanelMS []float64 `json:"panel_ms"`
	// WarmAllocB is the bytes allocated over the warm passes.
	WarmAllocB uint64   `json:"warm_alloc_b"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`

	// Traced runs only.
	Spans  []span             `json:"spans,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// passChild is the "pass" role of cluster-panels: a fresh process, so
// the package-global dist memos start empty for its cold pass.
func passChild(cfg *config) error {
	jobs := panelJobs(cfg.seed)
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	workers := runtime.NumCPU()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	planned := dist.NewPlanned()
	evs := map[string]dist.Evaluator{"analytic": dist.Analytic{}, "planned": planned}
	if tr != nil {
		planned.Observe(func(phase string, seconds float64) {
			tr.closed("dist.planned."+phase, time.Duration(seconds*1e9))
		})
		for k, ev := range evs {
			evs[k] = tracingEvaluator{inner: ev, tr: tr}
		}
	}
	rep := passReport{SetupS: timeSinceStart()}
	var acct accounting
	// warm sums the runtime counters over the warm passes' panel calls,
	// leaving out the checks.
	var warm memSnap
	var cache [2][2]dist.CacheStats
	type output struct {
		text    []byte
		results []*dist.Result
		raw     any
		err     error
	}
	outs := make([]output, len(jobs))
	for pass := 0; pass <= warmPasses; pass++ {
		if pass == 1 {
			cache[0] = [2]dist.CacheStats{dist.SharedCacheStats(), planned.CacheStats()}
		}
		label := "cold"
		if pass > 0 {
			label = "warm"
		}
		var total time.Duration
		root := tr.beginOp("pass."+label, pass)
		for i, j := range jobs {
			m0 := readMem()
			sp := tr.begin("experiments." + j.Kind + "_" + label)
			t0 := time.Now()
			o := &outs[i]
			o.text, o.results, o.raw, o.err = runJob(j, evs[j.Backend], workers)
			d := time.Since(t0)
			tr.end(sp)
			m1 := readMem()
			total += d
			if pass > 0 {
				rep.PanelMS = append(rep.PanelMS, float64(d)/1e6)
				warm.totalAlloc += m1.totalAlloc - m0.totalAlloc
				warm.numGC += m1.numGC - m0.numGC
				warm.pauseNs += m1.pauseNs - m0.pauseNs
			}
		}
		tr.end(root)
		if pass == 0 {
			rep.ColdS = total.Seconds()
		} else {
			rep.WarmS = append(rep.WarmS, total.Seconds())
		}
		for i, j := range jobs {
			err := outs[i].err
			if err == nil {
				err = checkJob(j, outs[i].text, outs[i].results, outs[i].raw, digests)
			}
			if err != nil {
				err = fmt.Errorf("%s pass, %s: %w", label, j.name(), err)
			}
			acct.op(err)
		}
	}
	cache[1] = [2]dist.CacheStats{dist.SharedCacheStats(), planned.CacheStats()}
	rep.WarmAllocB = warm.totalAlloc
	rep.Attempted, rep.Failed, rep.Failures = acct.attempted, acct.failed, acct.failures
	if tr != nil {
		rep.Spans = tr.snapshot()
		rep.Layers = map[string]float64{}
		cacheLayers(rep.Layers, "dist.shared_cache", cache[0][0], cache[1][0], warmPasses)
		cacheLayers(rep.Layers, "dist.planned_cache", cache[0][1], cache[1][1], warmPasses)
		runtimeLayers(rep.Layers, memSnap{}, warm, warmPasses*len(jobs))
	}
	return json.NewEncoder(os.Stdout).Encode(childResult{Pass: &rep})
}

// cacheLayers sets a cache's hit, miss and eviction counts between two
// snapshots, per op, and its hit ratio.
func cacheLayers(layers map[string]float64, prefix string, a, b dist.CacheStats, ops int) {
	hits, misses := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
	n := float64(ops)
	layers[prefix+".hits"] = hits / n
	layers[prefix+".misses"] = misses / n
	layers[prefix+".evictions"] = float64(b.Evictions-a.Evictions) / n
	layers[prefix+".hit_ratio"] = ratio(hits, hits+misses)
}

// timeSinceStart is the time since this process was launched: the
// launcher (run.sh, or the parent of a child process) records the
// launch in PERFBENCH_LAUNCH_NS, so process creation and runtime start
// count. Without it, package initialization stands in.
func timeSinceStart() float64 {
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_LAUNCH_NS"), 10, 64); err == nil {
		return float64(time.Now().UnixNano()-ns) / 1e9
	}
	return time.Since(processStart).Seconds()
}

// runPanels measures cluster-panels: fresh child processes, each one
// cold pass and warmPasses warm passes, until the time is up. A traced
// run alternates untraced and traced children to report the tracing
// overhead.
func runPanels(cfg *config) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var plain, traced []*passReport
	var peak float64
	t0 := time.Now()
	for time.Since(t0).Seconds() < cfg.seconds || len(plain) < 3 || (cfg.trace && len(traced) < 2) {
		trace := cfg.trace && len(traced) < len(plain)
		r, err := runChild(cfg, "pass", trace)
		if err != nil {
			return nil, err
		}
		peak = math.Max(peak, r.PeakRSSMB)
		if trace {
			traced = append(traced, r.Pass)
		} else {
			plain = append(plain, r.Pass)
		}
	}
	for _, r := range append(append([]*passReport(nil), plain...), traced...) {
		out.acct.merge(accounting{attempted: r.Attempted, failed: r.Failed, failures: r.Failures})
	}
	var setups, colds, warms, panels, rates []float64
	var warmAlloc float64
	for _, r := range plain {
		rates = append(rates, float64(len(r.PanelMS))/(sum(r.PanelMS)/1e3))
		setups = append(setups, r.SetupS)
		colds = append(colds, r.ColdS)
		warms = append(warms, r.WarmS...)
		panels = append(panels, r.PanelMS...)
		warmAlloc += float64(r.WarmAllocB)
	}
	if cfg.trace {
		if err := panelLayers(cfg, out, traced); err != nil {
			return nil, err
		}
		var tcolds []float64
		for _, r := range traced {
			tcolds = append(tcolds, r.ColdS)
		}
		out.layers["bench.trace_overhead_pct"] = 100 * (median(tcolds)/median(colds) - 1)
		return out, nil
	}
	l := loopStats{lat: panels, rates: rates}
	out.metrics = append(out.metrics,
		metric{Name: "setup_s", Value: median(setups), Unit: "s", Cache: "cold", Samples: len(setups), Note: "median over fresh pass processes: spawn, runtime and package init, digests read; only process overhead, cluster-panels has no set-up of its own"},
		metric{Name: "cold_pass_s", Value: median(colds), Unit: "s", Cache: "cold", Samples: len(colds), Note: "every cluster panel, fresh process (dist memos empty)"},
		metric{Name: "warm_pass_s", Value: median(warms), Unit: "s", Cache: "warm", Samples: len(warms), Note: "every cluster panel again, same process and evaluators"},
	)
	out.metrics = append(out.metrics, l.opMetrics("warm panel", "p90")...)
	out.metrics = append(out.metrics,
		metric{Name: "alloc_kb_per_op", Value: warmAlloc / 1024 / float64(len(panels)), Unit: "KB", Cache: "warm", Samples: len(panels), Note: "per warm panel"},
		metric{Name: "peak_rss_mb", Value: peak, Unit: "MB", Cache: "cold", Samples: len(plain), Note: "largest pass process"},
	)
	return out, nil
}

// panelLayers aggregates the traced children's spans into the
// cluster-panels per-layer metrics: dist calls and planner phases per
// cold pass, panel times per cold and warm pass, worker occupancy, and
// the children's cache and runtime figures.
func panelLayers(cfg *config, out *outcome, reps []*passReport) error {
	cold := float64(len(reps))
	warm := cold * warmPasses
	// Totals first, each divided by its pass count at the end.
	per := map[string]float64{}
	add := func(k string, v, passes float64) {
		out.layers[k] += v
		per[k] = passes
	}
	var distMS, panelMS float64
	var groups [][]span
	for _, r := range reps {
		groups = append(groups, r.Spans)
		for _, sp := range r.Spans {
			ms := float64(sp.End-sp.Start) / 1e6
			switch {
			case strings.HasPrefix(sp.Name, "experiments."):
				panelMS += ms
				if strings.HasSuffix(sp.Name, "_cold") {
					add(sp.Name+"_ms", ms, cold)
				} else {
					add(sp.Name+"_ms", ms, warm)
				}
			case strings.HasPrefix(sp.Name, "dist.planned."):
				if sp.Op == 0 {
					add(sp.Name+"_ms", ms, cold)
				} else if sp.Name == "dist.planned.simulate" {
					add("dist.planned.simulate_warm_ms", ms, warm)
				}
			case strings.HasPrefix(sp.Name, "dist."):
				distMS += ms
				if sp.Op == 0 {
					add(sp.Name+".calls", 1, cold)
					add(sp.Name+"_ms", ms, cold)
				}
			}
		}
		for k, v := range r.Layers {
			add(k, v, cold) // per-op figures of one process: average them
		}
	}
	for k, n := range per {
		out.layers[k] /= n
	}
	out.layers["sweep.worker_busy_frac"] = ratio(distMS, float64(runtime.NumCPU())*panelMS)
	return writeTraceArtifacts(cfg, out, groups, map[string]bool{"pass.cold": true, "pass.warm": true})
}
