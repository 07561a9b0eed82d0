package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names and units (a test holds them equal).

// endToEnd are the metrics every workload reports with --trace 0.
var endToEnd = []string{
	"setup_s", "cold_pass_s", "warm_pass_s",
	"ops_per_s", "op_p50_ms", "op_tail_ms",
	"alloc_kb_per_op", "peak_rss_mb",
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "cold_pass_s": "s", "warm_pass_s": "s",
	"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
	"alloc_kb_per_op": "KB", "peak_rss_mb": "MB",
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// perLayer lists every per-layer metric; a workload that bypasses a
// layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	var out []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit})
		}
	}
	// single-gpu-plan, per point.
	add("ms", "model.build_ms", "profiler.new_ms")
	add("count", "profiler.blocks")
	add("ms", "baseline.in_core_ms", "baseline.vdnnpp_ms", "baseline.superneurons_ms", "baseline.checkmate_ms")
	add("ms", "karma.plan_ms")
	add("count", "karma.plan_calls", "karma.infeasible")
	add("ms", "plan.build_ms", "plan.compile_ms")
	add("count", "plan.ops")
	add("ms", "sim.run_ms")
	add("ns", "sim.ns_per_event")
	// cluster-panels, per cold pass.
	for _, f := range []string{"karma_dp", "dp", "mp_dp", "zero", "pipeline"} {
		for _, b := range []string{"analytic", "planned"} {
			add("count", "dist."+f+"."+b+".calls")
			add("ms", "dist."+f+"."+b+"_ms")
		}
	}
	add("ms", "dist.planned.search_ms", "dist.planned.plan_build_ms", "dist.planned.simulate_ms", "dist.planned.simulate_warm_ms")
	// Cache traffic per op (warm pass or request).
	for _, c := range []string{"dist.shared_cache", "dist.planned_cache", "serve.response_cache"} {
		add("count", c+".hits", c+".misses", c+".evictions")
		add("ratio", c+".hit_ratio")
	}
	for _, p := range []string{"fig8_megatron", "fig8_turing", "table4", "table5", "topo"} {
		add("ms", "experiments."+p+"_cold_ms", "experiments."+p+"_warm_ms")
	}
	add("ratio", "sweep.worker_busy_frac")
	// serve-zipf, over the traced window.
	for _, e := range serveEndpoints {
		add("count", "serve."+e+".count")
		add("ms", "serve."+e+".p50_ms", "serve."+e+".p99_ms")
		add("B", "serve."+e+".bytes_per_req")
	}
	add("ms", "serve.eval_phase.search_ms", "serve.eval_phase.plan_build_ms", "serve.eval_phase.simulate_ms", "serve.http_overhead_ms")
	// Every workload, per op.
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	add("MB", "runtime.alloc_mb")
	// The benchmark's own health.
	add("%", "bench.trace_overhead_pct", "bench.self_time_coverage_pct")
	return out
}
