package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"karma/internal/baseline"
	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/serve"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs and finds its golden renderings.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var record = flag.Bool("record", false, "TestRecordGolden rewrites the golden renderings under golden/")

// TestRecordGolden re-records the golden renderings from the current
// code. Run it only for an intended change of model output:
//
//	go test -run TestRecordGolden -args -record
func TestRecordGolden(t *testing.T) {
	if !*record {
		t.Skip("records the golden renderings only with -record")
	}
	fig5, err := fig5Rendering(hw.ABCINode())
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{fig5Golden: fig5}
	evs := map[string]dist.Evaluator{"analytic": dist.Analytic{}, "planned": dist.NewPlanned()}
	var digests []string
	for _, j := range panelJobs(1) {
		text, _, raw, err := runJob(j, evs[j.Backend], runtime.NumCPU())
		if err != nil {
			t.Fatalf("%s: %v", j.name(), err)
		}
		d, err := resultDigest(raw)
		if err != nil {
			t.Fatal(err)
		}
		files[j.name()+".txt"] = text
		digests = append(digests, j.name()+" "+d)
	}
	sort.Strings(digests)
	files[digestFile] = []byte(strings.Join(digests, "\n") + "\n")
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("recorded %d golden files under %s", len(files), goldenDir)
}

func TestInputsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		if a, b := singlePoints(seed), singlePoints(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("single-gpu-plan seed %d: points differ between generations", seed)
		}
		if a, b := panelJobs(seed), panelJobs(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("cluster-panels seed %d: panel order differs between generations", seed)
		}
		pa, pb := servePool(seed), servePool(seed)
		if !reflect.DeepEqual(pa, pb) {
			t.Errorf("serve-zipf seed %d: pool differs between generations", seed)
		}
		exportable := []int{0, 3, 5, 8, 13}
		sa := newStream(seed, pa, exportable, sweepPool()).take(2000)
		sb := newStream(seed, pb, exportable, sweepPool()).take(2000)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("serve-zipf seed %d: request stream differs between generations", seed)
		}
	}
	if reflect.DeepEqual(singlePoints(1), singlePoints(2)) {
		t.Error("single-gpu-plan: seeds 1 and 2 draw the same points")
	}
	if reflect.DeepEqual(servePool(1), servePool(2)) {
		t.Error("serve-zipf: seeds 1 and 2 draw the same pool")
	}
}

func TestServePoolShape(t *testing.T) {
	pool := servePool(3)
	if len(pool) != 2*responseCacheEntries {
		t.Fatalf("pool has %d configurations, want twice the response cache (%d)", len(pool), 2*responseCacheEntries)
	}
	families := map[string]map[string]bool{}
	keys := map[string]bool{}
	for _, r := range pool {
		if families[r.Family] == nil {
			families[r.Family] = map[string]bool{}
		}
		families[r.Family][r.Backend] = true
		keys[string(mustJSON(r))] = true
	}
	for _, f := range []string{"karma-dp", "dp", "mp+dp", "zero", "pipeline"} {
		if !families[f]["analytic"] || !families[f]["planned"] {
			t.Errorf("family %s lacks a backend: %v", f, families[f])
		}
	}
	if len(keys) != len(pool) {
		t.Errorf("pool has %d distinct configurations of %d", len(keys), len(pool))
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{19, 0, false}, // the median has 9 samples beyond it
		{20, 50, true},
		{40, 75, true},
		{99, 75, true}, // p90 has 9 beyond
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(got, c.n) < minBeyond {
			t.Errorf("highestTail(%d) = p%v has %d samples beyond it", c.n, got, beyond(got, c.n))
		}
	}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, used, err := tail(xs, 99)
	if err != nil || used != 90 || v != 135 {
		t.Errorf("tail(1..150, p99) = %v at p%v, %v; want 135 at p90 (p99 lacks samples)", v, used, err)
	}
	if v, used, _ := tail(xs, 50); used != 50 || v != 75 {
		t.Errorf("tail(1..150, p50) = %v at p%v; want 75 at p50", v, used)
	}
	if _, _, err := tail(xs[:15], 99); err == nil {
		t.Error("tail of 15 samples: want an error, no percentile has 10 beyond")
	}
}

func TestCheckerFlagsCorruptSingleGPUResult(t *testing.T) {
	gpu, err := newSingleGPU()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := gpu.run(point{Model: "resnet50", Batch: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSingle(rs); err != nil {
		t.Fatalf("clean results flagged: %v", err)
	}
	for name, corrupt := range map[string]func(*baseline.Result){
		"negative iter":   func(r *baseline.Result) { r.IterTime = -r.IterTime },
		"NaN throughput":  func(r *baseline.Result) { r.Throughput = math.NaN() },
		"occupancy > 1":   func(r *baseline.Result) { r.Occupancy = 1.5 },
		"stall over iter": func(r *baseline.Result) { r.ComputeStall = 2 * r.IterTime },
	} {
		bad := make([]*baseline.Result, len(rs))
		for i, r := range rs {
			c := *r
			bad[i] = &c
		}
		for _, r := range bad {
			if r.Feasible {
				corrupt(r)
				break
			}
		}
		if _, err := checkSingle(bad); err == nil {
			t.Errorf("%s: corrupted result passed the checker", name)
		}
	}

	// A repeated point that renders differently is a failed op.
	st := &singleState{gpu: gpu, pts: []point{{Model: "resnet50", Batch: 256}}, first: map[int][32]byte{}}
	if err := st.check(0, rs); err != nil {
		t.Fatal(err)
	}
	changed := append([]*baseline.Result(nil), rs...)
	c := *changed[len(changed)-1]
	c.PeakMem++
	changed[len(changed)-1] = &c
	if err := st.check(0, changed); err == nil {
		t.Error("a repeated point with a different rendering passed")
	}
}

func TestCheckerFlagsCorruptPanel(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	j := panelJob{Kind: "table4", Backend: "analytic", Precision: "fp32"}
	text, results, raw, err := runJob(j, dist.Analytic{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJob(j, text, results, raw, digests); err != nil {
		t.Fatalf("clean panel flagged: %v", err)
	}
	bad := append([]byte(nil), text...)
	bad[len(bad)/2] ^= 1
	if err := checkJob(j, bad, results, raw, digests); err == nil {
		t.Error("a corrupted panel rendering passed the golden comparison")
	}
	// A result whose breakdown no longer sums to its iteration time.
	r := *results[0]
	b := *r.Breakdown
	b.Compute *= 1.01
	r.Breakdown = &b
	if err := checkResult(&r); err == nil {
		t.Error("a breakdown that does not sum to iter_time_s passed")
	}
	if err := checkJob(j, text, results, []any{raw, "extra"}, digests); err == nil {
		t.Error("results that differ from the golden digest passed")
	}
}

func TestCheckerFlagsCorruptResponse(t *testing.T) {
	var acct accounting
	st, err := startServer(&serveState{
		pool:    servePool(5)[:64],
		sweeps:  sweepPool(),
		answers: map[string][32]byte{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	// The first analytic configuration with a feasible verdict.
	analytic := -1
	var req request
	var body []byte
	for i, r := range st.pool {
		if r.Backend != "analytic" {
			continue
		}
		req = request{endpoint: "evaluate", idx: i, body: mustJSON(r)}
		if _, body, err = st.do(req, nil); err != nil {
			t.Fatalf("clean request failed: %v", err)
		}
		if bytes.Contains(body, []byte(`"feasible":true`)) {
			analytic = i
			break
		}
	}
	if analytic < 0 {
		t.Fatal("no feasible analytic configuration in the pool")
	}
	if err := checkAnswer("evaluate", body); err != nil {
		t.Fatalf("clean answer flagged: %v", err)
	}
	if err := st.crossCheck(&acct); err != nil || acct.failed != 0 {
		t.Fatalf("clean answer failed the cross-check: %v %v", err, acct.failures)
	}

	// An answer whose breakdown does not sum to iter_time_s.
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Result.Breakdown.Compute *= 1.01
	if err := checkAnswer("evaluate", mustJSON(resp)); err == nil {
		t.Error("an answer whose breakdown does not sum to iter_time_s passed")
	}

	// The same key answered with different bytes.
	if err := st.remember(req.key(), []byte(`{"result":{}}`)); err == nil {
		t.Error("a repeated request answered differently passed")
	}
	// An answer that differs from the direct dist evaluation.
	st.answers[req.key()] = sha256.Sum256([]byte(`{"result":{"feasible":false}}` + "\n"))
	if err := st.crossCheck(&acct); err != nil || acct.failed != 1 {
		t.Errorf("corrupted answer: cross-check failed %d ops (err %v), want 1", acct.failed, err)
	}
	// A non-200 answer is a failed op.
	bad := request{endpoint: "evaluate", idx: analytic, body: []byte(`{"family":"nope"}`)}
	if _, _, err := st.do(bad, nil); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Errorf("a 400 answer: got %v, want a status error", err)
	}
}

func TestDirectMatchesServeForEveryEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates planned configurations")
	}
	st, err := startServer(&serveState{pool: servePool(9)[:24], sweeps: sweepPool()[:1], answers: map[string][32]byte{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	var acct accounting
	for i, r := range st.pool {
		for _, ep := range []string{"evaluate", "feasibility", "plan", "trace"} {
			if (ep == "plan" || ep == "trace") && r.Family == "dp" {
				continue
			}
			// Infeasible configurations have no plan to export (422, and
			// no answer recorded); the benchmark never sends those.
			_, _, err := st.do(request{endpoint: ep, idx: i, body: mustJSON(r)}, nil)
			if err != nil && (ep == "evaluate" || ep == "feasibility") {
				t.Errorf("%s %d: %v", ep, i, err)
			}
		}
	}
	if _, _, err := st.do(request{endpoint: "sweep", idx: 0, body: mustJSON(st.sweeps[0])}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.crossCheck(&acct); err != nil || acct.failed != 0 {
		t.Errorf("direct evaluation disagrees with the daemon: %v %v", err, acct.failures)
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	// op [0,100): a [10,40) with child b [20,30); two concurrent
	// workers c [50,90) and d [60,80).
	spans := []span{
		{Name: "op", Start: 0, End: 100e6, Parent: -1},
		{Name: "a", Start: 10e6, End: 40e6, Parent: 0},
		{Name: "b", Start: 20e6, End: 30e6, Parent: 1},
		{Name: "c", Start: 50e6, End: 90e6, Parent: 0, GID: 2},
		{Name: "d", Start: 60e6, End: 80e6, Parent: 0, GID: 3},
	}
	table, wall := selfTimes([][]span{spans})
	want := map[string]float64{"op": 30, "a": 20, "b": 10, "c": 30, "d": 10}
	var total float64
	for n, w := range want {
		if got := table[n].SelfMS; math.Abs(got-w) > 1e-9 {
			t.Errorf("self(%s) = %v ms, want %v", n, got, w)
		}
		total += table[n].SelfMS
	}
	if wall != 100 || math.Abs(total-wall) > 1e-9 {
		t.Errorf("self times sum to %v ms, op wall %v ms; want both 100", total, wall)
	}
	if cov := coverage(table, wall, map[string]bool{"op": true}); math.Abs(cov-0.7) > 1e-12 {
		t.Errorf("coverage = %v, want 0.7", cov)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, [][]span{spans}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(spans) {
		t.Errorf("chrome trace: %d events, %v", len(doc.TraceEvents), err)
	}
}

func TestTracerNestsWorkerSpansUnderTheOp(t *testing.T) {
	tr := newTracer()
	root := tr.beginOp("op", 0)
	panel := tr.begin("panel")
	done := make(chan struct{})
	go func() {
		sp := tr.begin("worker")
		tr.closed("phase", 0)
		tr.end(sp)
		close(done)
	}()
	<-done
	tr.end(panel)
	tr.end(root)
	spans := tr.snapshot()
	parent := map[string]string{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			parent[sp.Name] = spans[sp.Parent].Name
		}
	}
	want := map[string]string{"panel": "op", "worker": "panel", "phase": "worker"}
	if !reflect.DeepEqual(parent, want) {
		t.Errorf("parents = %v, want %v", parent, want)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // the untraced path records nothing
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range doc.Workloads {
		wl = append(wl, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the program runs %d workloads", wl, len(workloads))
	}
	var e2e []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, program %v", e2e, endToEnd)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("per-layer metrics: BENCHMARK.json has %d, program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
