package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/serve"
	"karma/internal/tensor"
	"karma/internal/topo"
	"karma/internal/trace"
)

const (
	// responseCacheEntries is karma-serve's default response LRU size.
	responseCacheEntries = 1024
	// poolSize is twice the response cache, so the Zipf stream hits,
	// misses and evicts.
	poolSize = 2 * responseCacheEntries
	// zipfS is the skew of the request stream over the pool.
	zipfS = 1.1
	// warmupRequests run after the cold pass, before timing, so the
	// response LRU reaches its steady state.
	warmupRequests = 6000
	// rewarmRequests restore the response LRU's hot set after a warm
	// pass has scanned the whole pool through it.
	rewarmRequests = 3000
	// serveConns is the closed loop's connection count (nproc here).
	serveConns = 2
	// minServeSamples lets the p99 tail satisfy the ≥10-beyond rule
	// with margin.
	minServeSamples = 2000
)

// endpointMix is the share of each endpoint in the request stream.
var endpointMix = []struct {
	name  string
	share float64
}{
	{"evaluate", 0.60},
	{"feasibility", 0.25},
	{"plan", 0.06},
	{"trace", 0.06},
	{"sweep", 0.03},
}

// serveEndpoints in report order.
var serveEndpoints = []string{"evaluate", "feasibility", "plan", "trace", "sweep"}

// pick returns a uniformly chosen element.
func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// shapeSeed fixes the sequence of configuration shapes (family,
// backend, model, batch, parallel degrees, precision, checkpointing):
// pool rank k has the same shape under every seed, so the Zipf-hot set
// costs the same from seed to seed. The run's seed draws the rest.
const shapeSeed = 1

// servePool draws poolSize configurations across the five families and
// both backends. The shape value sets keep the planner's distinct
// replica shapes few (so a cold pass fills the memos in under a
// second), while the seeded GPU counts, fabrics, sample counts and
// exchange variants make the canonical requests distinct.
func servePool(seed int64) []serve.EvaluateRequest {
	shape := rand.New(rand.NewSource(shapeSeed))
	rng := rand.New(rand.NewSource(seed))
	graphModels := []string{"resnet50", "vgg16", "resnet200", "wrn-28-10", "unet"}
	graphBatch := map[string][]int{
		"resnet50": {64, 128, 256}, "vgg16": {32, 64}, "resnet200": {8, 16},
		"wrn-28-10": {128, 256}, "unet": {8, 16},
	}
	transformers := []string{"megatron-0.3B", "megatron-1.2B", "megatron-2.5B", "megatron-4.2B", "megatron-8.3B", "turing-nlg-17B"}
	gpusFor := func(min int) int {
		var opts []int
		for g := 8; g <= 2048; g *= 2 {
			if g >= min {
				opts = append(opts, g)
			}
		}
		return pick(rng, opts...)
	}
	seen := map[string]bool{}
	var pool []serve.EvaluateRequest
	for len(pool) < poolSize {
		r := serve.EvaluateRequest{
			Backend:   pick(shape, "analytic", "planned"),
			Precision: pick(shape, "fp32", "fp16"),
			Family:    pick(shape, "karma-dp", "karma-dp", "dp", "mp+dp", "zero", "pipeline"),
		}
		minGPUs := 8
		switch r.Family {
		case "karma-dp", "dp":
			if shape.Intn(3) == 0 {
				r.Model = pick(shape, transformers[:4]...)
				r.Batch = pick(shape, 2, 4)
			} else {
				r.Model = pick(shape, graphModels...)
				r.Batch = pick(shape, graphBatch[r.Model]...)
			}
		case "mp+dp", "zero":
			r.Model = pick(shape, transformers...)
			r.MP = pick(shape, 2, 4, 8)
			r.Batch = pick(shape, 2, 4)
			r.Ckpt = shape.Intn(2) == 0
			minGPUs = 8 * r.MP
		case "pipeline":
			r.Model = pick(shape, transformers...)
			r.Stages = pick(shape, 2, 4, 8)
			r.Batch = pick(shape, 4, 8)
			r.Ckpt = shape.Intn(2) == 0
			minGPUs = 8 * r.Stages
		}
		// The seeded dimensions; redrawn while the request repeats one
		// already in the pool.
		for try := 0; try < 16; try++ {
			r.GPUs = gpusFor(minGPUs)
			r.Samples = pick(rng, 0, 1_280_000, 7_200_000)
			r.Cluster = serve.ClusterSpec{Topology: pick(rng, "flat", "abci", "fattree:2")}
			r.Phased = r.Family == "mp+dp" && rng.Intn(2) == 0
			r.UpdateOnDevice = r.Family == "karma-dp" && rng.Intn(4) == 0
			if key := string(mustJSON(r)); !seen[key] {
				seen[key] = true
				pool = append(pool, r)
				break
			}
		}
	}
	return pool
}

// sweepPool lists the /v1/sweep requests: every panel kind, both
// backends, at the daemon's default grids.
func sweepPool() []serve.SweepRequest {
	var out []serve.SweepRequest
	for _, b := range dist.BackendNames() {
		for _, p := range []string{"fig8-megatron", "fig8-turing", "table4", "table5", "topo"} {
			out = append(out, serve.SweepRequest{Panel: p, Backend: b, Pipeline: true})
		}
	}
	return out
}

// request is one op of the stream.
type request struct {
	endpoint string
	// idx is the configuration's index in its pool.
	idx  int
	body []byte
}

// key identifies a request's answer: same key, same bytes.
func (r request) key() string { return r.endpoint + "/" + strconv.Itoa(r.idx) }

// stream generates the seeded request sequence: endpoints by the mix,
// configurations Zipf-ranked over their pool. Plan and trace requests
// draw only from exportable configurations.
type stream struct {
	rng        *rand.Rand
	pool       []serve.EvaluateRequest
	exportable []int
	sweeps     []serve.SweepRequest
	zipfPool   *rand.Zipf
	zipfExport *rand.Zipf
	zipfSweep  *rand.Zipf
}

func newStream(seed int64, pool []serve.EvaluateRequest, exportable []int, sweeps []serve.SweepRequest) *stream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	s := &stream{rng: rng, pool: pool, exportable: exportable, sweeps: sweeps}
	s.zipfPool = rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	if len(exportable) > 1 {
		s.zipfExport = rand.NewZipf(rng, zipfS, 1, uint64(len(exportable)-1))
	}
	s.zipfSweep = rand.NewZipf(rng, zipfS, 1, uint64(len(sweeps)-1))
	return s
}

func (s *stream) next() request {
	u := s.rng.Float64()
	ep := endpointMix[len(endpointMix)-1].name
	for _, m := range endpointMix {
		if u < m.share {
			ep = m.name
			break
		}
		u -= m.share
	}
	switch ep {
	case "sweep":
		i := int(s.zipfSweep.Uint64())
		return request{endpoint: ep, idx: i, body: mustJSON(s.sweeps[i])}
	case "plan", "trace":
		if s.zipfExport != nil {
			i := s.exportable[s.zipfExport.Uint64()]
			return request{endpoint: ep, idx: i, body: mustJSON(s.pool[i])}
		}
		ep = "evaluate"
	}
	i := int(s.zipfPool.Uint64())
	return request{endpoint: ep, idx: i, body: mustJSON(s.pool[i])}
}

// take returns the next n requests.
func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// serveState is a running in-process karma-serve and its client.
type serveState struct {
	pool       []serve.EvaluateRequest
	sweeps     []serve.SweepRequest
	exportable []int
	stream     *stream
	srv        *http.Server
	base       string
	client     *http.Client

	mu sync.Mutex
	// answers holds each key's first body digest; repeats must match.
	answers map[string][32]byte
}

// setupServe generates the pool, starts the server on a loopback
// listener, runs the cold pass (every pool configuration evaluated
// once by a fresh process) and warms the response cache with the
// stream. It returns the cold pass time.
func setupServe(cfg *config, acct *accounting) (*serveState, float64, error) {
	st, err := startServer(&serveState{pool: servePool(cfg.seed), sweeps: sweepPool(), answers: map[string][32]byte{}})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	verdicts := make([]*dist.Result, len(st.pool))
	st.replay(st.evaluatePass(), nil, acct, func(r request, body []byte) error {
		var resp serve.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", r.key(), err)
		}
		verdicts[r.idx] = resp.Result
		if err := checkResult(resp.Result); err != nil {
			return fmt.Errorf("%s: %w", r.key(), err)
		}
		return nil
	})
	cold := time.Since(t0).Seconds()
	for i, v := range verdicts {
		// Exportable: feasible and costed by the planner (a planned
		// request that did not fall back to the analytic model), so the
		// planner has a schedule to export; dp never has one.
		if v != nil && v.Feasible && st.pool[i].Family != "dp" && v.Backend == "planned" {
			st.exportable = append(st.exportable, i)
		}
	}
	st.stream = newStream(cfg.seed, st.pool, st.exportable, st.sweeps)
	st.replay(st.stream.take(warmupRequests), nil, acct, nil)
	return st, cold, nil
}

// startServer serves a fresh karma-serve handler on a loopback listener
// and connects st's client to it.
func startServer(st *serveState) (*serveState, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: runtime.NumCPU(), CacheEntries: responseCacheEntries})
	st.srv = &http.Server{Handler: srv.Handler()}
	go st.srv.Serve(ln)
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns}}
	return st, nil
}

// evaluatePass is one /v1/evaluate request per pool configuration, in
// pool order.
func (st *serveState) evaluatePass() []request {
	reqs := make([]request, len(st.pool))
	for i, r := range st.pool {
		reqs[i] = request{endpoint: "evaluate", idx: i, body: mustJSON(r)}
	}
	return reqs
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st.srv.Shutdown(ctx)
	st.client.CloseIdleConnections()
}

// sample is one answered request.
type sample struct {
	endpoint string
	ms       float64
	bytes    int
}

// replay sends reqs over serveConns connections in a closed loop, each
// connection taking the next request when its last one is answered. It
// checks every answer (status 200, same bytes as the key's first
// answer) and returns the samples in completion order. onBody, when
// set, sees each successful body; an error it returns fails the op.
func (st *serveState) replay(reqs []request, tr *tracer, acct *accounting, onBody func(request, []byte) error) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var errs []error
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					break
				}
				s, body, err := st.do(reqs[i], tr)
				if err == nil && onBody != nil {
					err = onBody(reqs[i], body)
				}
				local = append(local, s)
				errs = append(errs, err)
			}
			mu.Lock()
			out = append(out, local...)
			for _, err := range errs {
				acct.op(err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// runFor is replay for a duration: the stream continues until secs
// have passed and at least minReqs requests were answered.
func (st *serveState) runFor(secs float64, minReqs int, tr *tracer, acct *accounting) ([]sample, float64) {
	var mu sync.Mutex
	next := func() request {
		mu.Lock()
		defer mu.Unlock()
		return st.stream.next()
	}
	var all []sample
	var allMu sync.Mutex
	var count atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var errs []error
			for time.Since(t0).Seconds() < secs || count.Load() < int64(minReqs) {
				s, _, err := st.do(next(), tr)
				count.Add(1)
				local = append(local, s)
				errs = append(errs, err)
			}
			allMu.Lock()
			all = append(all, local...)
			for _, err := range errs {
				acct.op(err)
			}
			allMu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(t0).Seconds()
}

// do sends one request and checks its answer.
func (st *serveState) do(r request, tr *tracer) (sample, []byte, error) {
	sp := tr.begin("serve." + r.endpoint)
	t0 := time.Now()
	resp, err := st.client.Post(st.base+"/v1/"+r.endpoint, "application/json", bytes.NewReader(r.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	tr.end(sp)
	s := sample{endpoint: r.endpoint, ms: float64(d) / 1e6, bytes: len(body)}
	if err != nil {
		return s, nil, fmt.Errorf("%s: %w", r.key(), err)
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil, fmt.Errorf("%s: status %d: %s", r.key(), resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := st.remember(r.key(), body); err != nil {
		return s, nil, err
	}
	return s, body, nil
}

// remember records a key's first answer and checks repeats against it.
func (st *serveState) remember(key string, body []byte) error {
	h := sha256.Sum256(body)
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.answers[key]; ok {
		if prev != h {
			return fmt.Errorf("%s: answer differs from the first answer to the same request", key)
		}
		return nil
	}
	st.answers[key] = h
	return nil
}

// stats scrapes /stats into series → value.
func (st *serveState) stats() (map[string]float64, error) {
	resp, err := st.client.Get(st.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseStats(resp.Body)
}

// parseStats reads Prometheus text exposition: "series value" lines.
func parseStats(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("stats line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func runServe(cfg *config) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	st, cold, err := setupServe(cfg, &out.acct)
	if err != nil {
		return nil, err
	}
	setup := timeSinceStart()
	defer st.close()

	if cfg.trace {
		plain, plainS := st.runFor(cfg.seconds/2, 0, nil, &out.acct)
		traced, err := st.tracedWindow(cfg, out)
		if err != nil {
			return nil, err
		}
		out.layers["bench.trace_overhead_pct"] = 100 * (ratio(float64(len(plain)), plainS)/traced - 1)
	} else {
		// The window is cut into segments. After each, the warm pass
		// runs (its scan evicts the hot set, so the stream re-warms the
		// response cache) and a fresh set-up process measures the cold
		// figures, spreading every sample over the run.
		var l loopStats
		var allocB uint64
		var warm []float64
		setups, colds := []float64{setup}, []float64{cold}
		for seg := 0; seg < segments; seg++ {
			m0 := readMem()
			samples, secs := st.runFor(cfg.seconds/segments, minServeSamples/segments, nil, &out.acct)
			allocB += readMem().totalAlloc - m0.totalAlloc
			for _, s := range samples {
				l.lat = append(l.lat, s.ms)
			}
			l.rates = append(l.rates, float64(len(samples))/secs)
			for i := 0; i < 2; i++ {
				t0 := time.Now()
				st.replay(st.evaluatePass(), nil, &out.acct, nil)
				warm = append(warm, time.Since(t0).Seconds())
			}
			st.replay(st.stream.take(rewarmRequests), nil, &out.acct, nil)
			s, c, err := freshSetup(cfg)
			if err != nil {
				return nil, err
			}
			setups, colds = append(setups, s), append(colds, c)
		}
		out.metrics = append(out.metrics,
			metric{Name: "setup_s", Value: median(setups), Unit: "s", Cache: "cold", Samples: len(setups), Note: "median over fresh processes: pool, server start, cold pass, cache warm-up"},
			metric{Name: "cold_pass_s", Value: median(colds), Unit: "s", Cache: "cold", Samples: len(colds), Note: fmt.Sprintf("one /v1/evaluate per pool configuration (%d), fresh server", poolSize)},
			metric{Name: "warm_pass_s", Value: median(warm), Unit: "s", Cache: "warm", Samples: len(warm), Note: "the same pass on the warm server (dist memos warm; a scan of twice the response LRU)"},
		)
		out.metrics = append(out.metrics, l.opMetrics("request", "p99")...)
		out.metrics = append(out.metrics,
			metric{Name: "alloc_kb_per_op", Value: float64(allocB) / 1024 / float64(len(l.lat)), Unit: "KB", Cache: "warm", Samples: len(l.lat), Note: "per request, client and server"},
			metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", Cache: "warm", Samples: 1},
		)
	}
	t0 := time.Now()
	if err := st.crossCheck(&out.acct); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("cross-checked %d distinct answers against dist in %.2fs", len(st.answers), time.Since(t0).Seconds()))
	return out, nil
}

// tracedWindow measures half the time with client spans around every
// request and turns them and the /stats deltas into the serve per-layer
// metrics. It returns the traced window's requests per second.
func (st *serveState) tracedWindow(cfg *config, out *outcome) (float64, error) {
	tr := newTracer()
	s0, err := st.stats()
	if err != nil {
		return 0, err
	}
	shared0 := dist.SharedCacheStats()
	m0 := readMem()
	samples, secs := st.runFor(cfg.seconds/2, 0, tr, &out.acct)
	m1 := readMem()
	shared1 := dist.SharedCacheStats()
	s1, err := st.stats()
	if err != nil {
		return 0, err
	}
	n := len(samples)
	delta := func(series string) float64 { return s1[series] - s0[series] }

	byEP := map[string][]sample{}
	var clientMS float64
	for _, s := range samples {
		byEP[s.endpoint] = append(byEP[s.endpoint], s)
		clientMS += s.ms
	}
	var serverS float64
	for _, ep := range serveEndpoints {
		ss := byEP[ep]
		lat := make([]float64, len(ss))
		var bytes float64
		for i, s := range ss {
			lat[i] = s.ms
			bytes += float64(s.bytes)
		}
		p := "serve." + ep
		out.layers[p+".count"] = float64(len(ss))
		if len(ss) > 0 {
			out.layers[p+".p50_ms"] = percentile(lat, 50)
			out.layers[p+".bytes_per_req"] = bytes / float64(len(ss))
			if v, used, err := tail(lat, 99); err == nil {
				out.layers[p+".p99_ms"] = v
				if used != 99 {
					out.notes = append(out.notes, fmt.Sprintf("%s.p99_ms: %d samples, reported p%g (≥%d samples beyond)", p, len(ss), used, minBeyond))
				}
			}
		}
		serverS += delta(fmt.Sprintf("karma_serve_request_seconds_sum{endpoint=%q}", "/v1/"+ep))
	}
	out.layers["serve.http_overhead_ms"] = ratio(clientMS-serverS*1e3, float64(n))

	cache := func(prefix, name string) {
		hits := delta(fmt.Sprintf("karma_serve_cache_hits_total{cache=%q}", name))
		misses := delta(fmt.Sprintf("karma_serve_cache_misses_total{cache=%q}", name))
		out.layers[prefix+".hits"] = hits / float64(n)
		out.layers[prefix+".misses"] = misses / float64(n)
		out.layers[prefix+".evictions"] = delta(fmt.Sprintf("karma_serve_cache_evictions_total{cache=%q}", name)) / float64(n)
		out.layers[prefix+".hit_ratio"] = ratio(hits, hits+misses)
	}
	cache("serve.response_cache", "response")
	cache("dist.planned_cache", "evaluator_planned")
	cacheLayers(out.layers, "dist.shared_cache", shared0, shared1, n)
	for _, ph := range []string{"search", "plan_build", "simulate"} {
		sum := delta(fmt.Sprintf("karma_serve_eval_phase_seconds_sum{phase=%q}", ph))
		cnt := delta(fmt.Sprintf("karma_serve_eval_phase_seconds_count{phase=%q}", ph))
		out.layers["serve.eval_phase."+ph+"_ms"] = ratio(sum*1e3, cnt)
	}
	runtimeLayers(out.layers, m0, m1, n)
	return float64(n) / secs, writeTraceArtifacts(cfg, out, [][]span{tr.snapshot()}, nil)
}

// direct evaluates configurations through dist, the way the daemon
// does, to cross-check its answers.
type direct struct {
	planned *dist.Planned
	graphs  map[string]*graph.Graph
}

func clusterOf(c serve.ClusterSpec) (hw.Cluster, error) {
	cl := hw.ABCI()
	if c.Nodes > 0 {
		cl.Nodes = c.Nodes
	}
	t := c.Topology
	if t == "" {
		t = "flat"
	}
	tp, err := topo.Parse(t)
	if err != nil {
		return hw.Cluster{}, err
	}
	return cl.WithTopology(tp), nil
}

// normalized fills the defaults karma-serve writes back.
func normalized(r serve.EvaluateRequest) (serve.EvaluateRequest, model.TransformerConfig, bool) {
	if r.Samples == 0 {
		r.Samples = 7_200_000
	}
	if r.Family == "pipeline" {
		if r.Micro == 0 {
			r.Micro = 8
		}
		if r.Micro > r.Batch {
			r.Micro = r.Batch
		}
	}
	cfg, isT := model.TransformerByName(r.Model)
	return r, cfg, isT
}

func (d *direct) graph(r serve.EvaluateRequest, cfg model.TransformerConfig, isT bool) (*graph.Graph, error) {
	if isT {
		return dist.CachedTransformer(cfg), nil
	}
	if g := d.graphs[r.Model]; g != nil {
		return g, nil
	}
	g, err := model.Build(r.Model)
	if err != nil {
		return nil, err
	}
	d.graphs[r.Model] = g
	return g, nil
}

// evaluate returns the dist verdict for a pool configuration.
func (d *direct) evaluate(req serve.EvaluateRequest) (*dist.Result, error) {
	r, cfg, isT := normalized(req)
	cl, err := clusterOf(r.Cluster)
	if err != nil {
		return nil, err
	}
	prec, err := tensor.ParsePrecision(r.Precision)
	if err != nil {
		return nil, err
	}
	var ev dist.Evaluator = dist.Analytic{}
	if r.Backend == "planned" {
		ev = d.planned
	}
	ho := dist.HybridOptions{Phased: r.Phased, Checkpoint: r.Ckpt, Precision: prec}
	switch r.Family {
	case "karma-dp", "dp":
		g, err := d.graph(r, cfg, isT)
		if err != nil {
			return nil, err
		}
		if r.Family == "dp" {
			return ev.DataParallel(g, cl, r.GPUs, r.Batch, r.Samples)
		}
		return ev.KARMADataParallel(g, cl, r.GPUs, r.Batch, r.Samples, dist.KARMAOptions{UpdateOnDevice: r.UpdateOnDevice, ZeROShard: r.ZeROShard, Precision: prec})
	case "mp+dp":
		return ev.MegatronHybrid(cfg, cl, r.MP, r.GPUs, r.Batch, r.Samples, ho)
	case "zero":
		return ev.ZeRO(cfg, cl, r.MP, r.GPUs, r.Batch, r.Samples, ho)
	case "pipeline":
		return ev.Pipeline(cfg, cl, r.Stages, r.GPUs, r.Batch, r.Micro, r.Samples, ho)
	}
	return nil, fmt.Errorf("unknown family %q", r.Family)
}

// export re-derives a configuration's planner schedule.
func (d *direct) export(req serve.EvaluateRequest) (*dist.PlanExport, error) {
	r, cfg, isT := normalized(req)
	cl, err := clusterOf(r.Cluster)
	if err != nil {
		return nil, err
	}
	prec, err := tensor.ParsePrecision(r.Precision)
	if err != nil {
		return nil, err
	}
	ho := dist.HybridOptions{Phased: r.Phased, Checkpoint: r.Ckpt, Precision: prec}
	switch r.Family {
	case "karma-dp":
		g, err := d.graph(r, cfg, isT)
		if err != nil {
			return nil, err
		}
		return d.planned.ExportKARMA(g, cl, r.GPUs, r.Batch, r.Samples, dist.KARMAOptions{UpdateOnDevice: r.UpdateOnDevice, ZeROShard: r.ZeROShard, Precision: prec})
	case "mp+dp", "zero":
		return d.planned.ExportHybrid(cfg, cl, r.MP, r.GPUs, r.Batch, r.Samples, r.Family == "zero", ho)
	case "pipeline":
		return d.planned.ExportPipeline(cfg, cl, r.Stages, r.GPUs, r.Batch, r.Micro, r.Samples, ho)
	}
	return nil, fmt.Errorf("family %q has no plan to export", r.Family)
}

// sweep regenerates a /v1/sweep panel. The sweep pool leaves config,
// grid, precision and ckpt to the daemon's defaults (2.5B, the default
// grids, fp32, on), which this mirrors.
func (d *direct) sweep(r serve.SweepRequest) (*serve.SweepResponse, error) {
	var ev dist.Evaluator = dist.Analytic{}
	if r.Backend == "planned" {
		ev = d.planned
	}
	cl, err := clusterOf(r.Cluster)
	if err != nil {
		return nil, err
	}
	fo := experiments.FamilyOptions{Ckpt: true, Precision: tensor.FP32Training, Pipeline: r.Pipeline, Workers: runtime.NumCPU()}
	resp := &serve.SweepResponse{Panel: r.Panel}
	switch r.Panel {
	case "fig8-megatron":
		resp.Fig8, err = experiments.Figure8Megatron(cl, 2, megatronGPUs, ev, fo)
	case "fig8-turing":
		resp.Fig8, err = experiments.Figure8Turing(cl, turingGPUs, ev, fo)
	case "table4":
		resp.Table4, err = experiments.TableIV(cl, ev, fo)
	case "table5":
		resp.Table5, err = experiments.TableV(cl, ev, fo.Workers)
	case "topo":
		resp.Topo, err = experiments.TopologySweep(cl, topoGPUs, experiments.TopoLadder(), ev, fo)
	default:
		err = fmt.Errorf("unknown panel %q", r.Panel)
	}
	return resp, err
}

// expected renders the bodies karma-serve must answer for one
// configuration: evaluate and feasibility share one evaluation, plan
// and trace one export.
func (d *direct) expected(group string, st *serveState, idx int) (map[string][]byte, error) {
	enc := func(v any) []byte { return append(mustJSON(v), '\n') }
	switch group {
	case "sweep":
		resp, err := d.sweep(st.sweeps[idx])
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"sweep": enc(resp)}, nil
	case "evaluate":
		res, err := d.evaluate(st.pool[idx])
		if err != nil {
			return nil, err
		}
		return map[string][]byte{
			"evaluate":    enc(serve.EvaluateResponse{Result: res}),
			"feasibility": enc(serve.FeasibilityResponse{Feasible: res.Feasible, Reason: res.Reason, GPUs: res.GPUs, GlobalBatch: res.GlobalBatch, Backend: res.Backend}),
		}, nil
	case "plan":
		ex, err := d.export(st.pool[idx])
		if err != nil {
			return nil, err
		}
		var tb, pb bytes.Buffer
		if err := trace.WriteChrome(&tb, trace.Collect(ex.Compiled.Ops, ex.Timeline)); err != nil {
			return nil, err
		}
		if err := ex.Plan.Encode(&pb); err != nil {
			return nil, err
		}
		return map[string][]byte{
			"plan":  enc(serve.PlanResponse{Plan: bytes.TrimSpace(pb.Bytes()), Result: ex.Result}),
			"trace": tb.Bytes(),
		}, nil
	}
	return nil, fmt.Errorf("unknown endpoint group %q", group)
}

// endpointGroup maps an endpoint to the direct evaluation its expected
// body comes from.
var endpointGroup = map[string]string{
	"evaluate": "evaluate", "feasibility": "evaluate",
	"plan": "plan", "trace": "plan", "sweep": "sweep",
}

// checkAnswer holds the verdict in an evaluate or plan answer to the
// invariants of checkResult; other endpoints carry no verdict.
func checkAnswer(endpoint string, body []byte) error {
	var resp struct {
		Result *dist.Result `json:"result"`
	}
	switch endpoint {
	case "evaluate", "plan":
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkResult(resp.Result)
	}
	return nil
}

// crossCheck evaluates every distinct request answered in this run
// directly through dist, holds each verdict to its invariants and
// compares the bytes; a broken invariant or a mismatch is a failed op.
// Repeats of a key were already held to its first answer.
func (st *serveState) crossCheck(acct *accounting) error {
	d := &direct{planned: dist.NewPlanned(), graphs: map[string]*graph.Graph{}}
	type job struct {
		group string
		idx   int
	}
	st.mu.Lock()
	byJob := map[job][]string{}
	var jobs []job
	for k := range st.answers {
		ep, idxS, _ := strings.Cut(k, "/")
		idx, err := strconv.Atoi(idxS)
		if err != nil {
			st.mu.Unlock()
			return err
		}
		j := job{endpointGroup[ep], idx}
		if byJob[j] == nil {
			jobs = append(jobs, j)
		}
		byJob[j] = append(byJob[j], ep)
	}
	st.mu.Unlock()
	// Pool order, so the direct evaluator's memos fill the way the
	// daemon's did.
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].idx != jobs[b].idx {
			return jobs[a].idx < jobs[b].idx
		}
		return jobs[a].group < jobs[b].group
	})
	for _, j := range jobs {
		want, err := d.expected(j.group, st, j.idx)
		for _, ep := range byJob[j] {
			k := ep + "/" + strconv.Itoa(j.idx)
			if err != nil {
				acct.fail(fmt.Errorf("%s: direct evaluation: %w", k, err))
				continue
			}
			// The answer matched want byte for byte or fails below, so
			// checking want checks the answer.
			if cerr := checkAnswer(ep, want[ep]); cerr != nil {
				acct.fail(fmt.Errorf("%s: %w", k, cerr))
			}
			if sha256.Sum256(want[ep]) != st.answers[k] {
				acct.fail(fmt.Errorf("%s: HTTP answer differs from the direct dist evaluation", k))
			}
		}
	}
	return nil
}
