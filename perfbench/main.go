// Command perfbench is the repository benchmark: it drives the planner
// through its public Go API and over karma-serve's HTTP surface, times
// every layer from outside, and checks every output it measures.
//
// Usage (from the repository root, through perfbench/run.sh, which
// builds this program first):
//
//	perfbench --workload single-gpu-plan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":412,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end metrics of the
// workload; with --trace 1 they are the per-layer metrics, taken from a
// traced run that also writes a Chrome trace and a self-time table under
// .bench_out/. A human-readable report with provenance, the cache state
// of every number and its sample count goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, after the runtime is up.
var processStart = time.Now()

// workloads maps a workload name to its runner.
var workloads = map[string]func(*config) (*outcome, error){
	"single-gpu-plan": runSingle,
	"cluster-panels":  runPanels,
	"serve-zipf":      runServe,
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's artifacts.
	outDir string
}

// outcome is what a workload run measured.
type outcome struct {
	acct    accounting
	metrics []metric
	// layers are the per-layer metrics of a traced run.
	layers map[string]float64
	// notes are extra report lines (trace artifacts, coverage).
	notes []string
}

// metric is one reported number with its provenance.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Cache   string  `json:"cache"` // "cold" or "warm"
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// accounting counts attempted and failed ops; the first few failures
// are kept for the report.
type accounting struct {
	attempted, failed int
	failures          []string
}

func (a *accounting) op(err error) {
	a.attempted++
	if err != nil {
		a.fail(err)
	}
}

// fail records a failure that is not tied to a counted op attempt (a
// golden panel mismatch, a cross-check): it counts as a failed op.
func (a *accounting) fail(err error) {
	a.failed++
	if len(a.failures) < 20 {
		a.failures = append(a.failures, err.Error())
	}
}

func (a *accounting) merge(b accounting) {
	a.attempted += b.attempted
	a.failed += b.failed
	for _, f := range b.failures {
		if len(a.failures) < 20 {
			a.failures = append(a.failures, f)
		}
	}
}

type provenance struct {
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentProvenance(seed int64) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

func main() {
	workload := flag.String("workload", "", "workload: single-gpu-plan|cluster-panels|serve-zipf")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measuring time")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	role := flag.String("role", "", "internal: setup|pass, for the fresh child processes the benchmark starts")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown workload %q", *workload)
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		outDir:   filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d", *workload, *seed)),
	}
	switch *role {
	case "":
	case "setup":
		if err := setupChild(cfg); err != nil {
			fatalf("%v", err)
		}
		return
	case "pass":
		if err := passChild(cfg); err != nil {
			fatalf("%v", err)
		}
		return
	default:
		fatalf("unknown role %q", *role)
	}

	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if err := finish(cfg, out); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// finish writes the report and prints the result line.
func finish(cfg *config, out *outcome) error {
	prov := currentProvenance(cfg.seed)
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed=%d trace=%t gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		cfg.workload, prov.Seed, cfg.trace, prov.GOMAXPROCS, prov.NProc, prov.GoVersion, prov.Commit)
	fmt.Fprintf(&b, "ops: attempted=%d failed=%d\n", out.acct.attempted, out.acct.failed)
	for _, f := range out.acct.failures {
		fmt.Fprintf(&b, "  FAILED: %s\n", f)
	}
	for _, m := range out.metrics {
		fmt.Fprintf(&b, "  %-16s %14.6f %-6s %s n=%d %s\n", m.Name, m.Value, m.Unit, m.Cache, m.Samples, m.Note)
	}
	names := make([]string, 0, len(out.layers))
	for n := range out.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  layer %-44s %.6g\n", n, out.layers[n])
	}
	for _, n := range out.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	os.Stderr.WriteString(b.String())

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := "report.json"
	if cfg.trace {
		name = "report-traced.json"
	}
	rep, err := json.MarshalIndent(struct {
		Workload   string             `json:"workload"`
		Trace      bool               `json:"trace"`
		Provenance provenance         `json:"provenance"`
		Attempted  int                `json:"attempted"`
		Failed     int                `json:"failed"`
		Failures   []string           `json:"failures,omitempty"`
		Metrics    []metric           `json:"metrics"`
		Layers     map[string]float64 `json:"layers,omitempty"`
		Notes      []string           `json:"notes,omitempty"`
	}{cfg.workload, cfg.trace, prov, out.acct.attempted, out.acct.failed, out.acct.failures, out.metrics, out.layers, out.notes}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(rep, '\n'), 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	if cfg.trace {
		for _, l := range perLayer {
			ms[l.name] = value{out.layers[l.name], l.unit}
		}
	} else {
		for _, m := range out.metrics {
			ms[m.Name] = value{m.Value, m.Unit}
		}
		for _, n := range endToEnd {
			if _, ok := ms[n]; !ok {
				return fmt.Errorf("%s did not measure %s", cfg.workload, n)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.acct.failed == 0 && out.acct.attempted > 0, out.acct.attempted, out.acct.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB is this process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// memSnap is the runtime counters the per-op metrics are deltas of.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

// runtimeLayers sets the runtime.* per-layer metrics: GC cycles, GC
// pause and allocation per op between two snapshots.
func runtimeLayers(layers map[string]float64, a, b memSnap, ops int) {
	n := float64(ops)
	layers["runtime.gc_cycles"] = ratio(float64(b.numGC-a.numGC), n)
	layers["runtime.gc_pause_ms"] = ratio(float64(b.pauseNs-a.pauseNs)/1e6, n)
	layers["runtime.alloc_mb"] = ratio(float64(b.totalAlloc-a.totalAlloc)/(1<<20), n)
}
