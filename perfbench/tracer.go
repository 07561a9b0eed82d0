package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed layer call. Times are nanoseconds since the
// tracer's epoch; parent is an index into the tracer's spans, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	GID    uint64 `json:"gid"`
}

// tracer records spans in memory. A nil *tracer records nothing and
// reads no clock, so the untraced run pays one nil check per layer call.
//
// Spans nest per goroutine. A span opened on a goroutine with no open
// span (a sweep worker running a grid point) takes the innermost open
// span of the goroutine that opened the current op as its parent, so
// the panel a worker serves owns the worker's calls.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[uint64][]int
	op    int
	opGID uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[uint64][]int{}, op: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// goid parses the current goroutine's id from its stack header
// ("goroutine 18 [running]:"). Only the traced run pays for it.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	s := buf[len("goroutine "):n]
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	id, _ := strconv.ParseUint(string(s[:i]), 10, 64)
	return id
}

// parentOf returns the innermost open span of gid, else of the op's
// goroutine; t.mu is held.
func (t *tracer) parentOf(gid uint64) int {
	if st := t.open[gid]; len(st) > 0 {
		return st[len(st)-1]
	}
	if st := t.open[t.opGID]; len(st) > 0 {
		return st[len(st)-1]
	}
	return -1
}

// beginOp opens the root span of op id.
func (t *tracer) beginOp(name string, id int) int {
	if t == nil {
		return -1
	}
	gid := goid()
	t.mu.Lock()
	t.op, t.opGID = id, gid
	t.mu.Unlock()
	return t.begin(name)
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	gid := goid()
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: t.parentOf(gid), Op: t.op, GID: gid})
	t.open[gid] = append(t.open[gid], i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[i]
	sp.End = end
	st := t.open[sp.GID]
	for k := len(st) - 1; k >= 0; k-- {
		if st[k] == i {
			t.open[sp.GID] = append(st[:k], st[k+1:]...)
			break
		}
	}
}

// closed records a span that ended now after d, nested under the
// calling goroutine's innermost open span: the shape of the
// (*dist.Planned).Observe callback, which reports a phase once it ends.
func (t *tracer) closed(name string, d time.Duration) {
	if t == nil {
		return
	}
	gid := goid()
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: end - int64(d), End: end, Parent: t.parentOf(gid), Op: t.op, GID: gid})
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes attributes each op's wall time to its spans. Self time is
// span time minus child-span time; where spans run concurrently (sweep
// workers) each instant is shared equally among the innermost spans
// active at it, so the self times of one op sum to its root span's
// wall time. It returns the per-name table and the summed wall time of
// the op roots. Each group is one process's spans (parent indices are
// per group).
func selfTimes(groups [][]span) (map[string]*layerTime, float64) {
	table := map[string]*layerTime{}
	row := func(name string) *layerTime {
		r := table[name]
		if r == nil {
			r = &layerTime{}
			table[name] = r
		}
		return r
	}
	var wall float64
	for _, spans := range groups {
		byOp := map[int][]int{}
		for i, sp := range spans {
			if sp.End < 0 {
				continue
			}
			r := row(sp.Name)
			r.Calls++
			r.TotalMS += float64(sp.End-sp.Start) / 1e6
			byOp[sp.Op] = append(byOp[sp.Op], i)
			if sp.Parent < 0 {
				wall += float64(sp.End-sp.Start) / 1e6
			}
		}
		for _, idx := range byOp { // any order: per-op sums commute
			for i, ms := range shareWall(spans, idx) {
				row(spans[i].Name).SelfMS += ms
			}
		}
	}
	return table, wall
}

// shareWall sweeps one op's spans in time order and splits every
// interval equally among the active spans that have no active child.
func shareWall(spans []span, idx []int) map[int]float64 {
	type event struct {
		t    int64
		i    int
		open bool
	}
	evs := make([]event, 0, 2*len(idx))
	for _, i := range idx {
		evs = append(evs, event{spans[i].Start, i, true}, event{spans[i].End, i, false})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].open && !evs[b].open
	})
	active := map[int]bool{}
	kids := map[int]int{} // active children per span
	self := map[int]float64{}
	var last int64
	for _, e := range evs {
		if dt := e.t - last; dt > 0 && len(active) > 0 {
			var leaves []int
			for i := range active { // any order: each leaf gets the same share
				if kids[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			for _, i := range leaves {
				self[i] += float64(dt) / 1e6 / float64(len(leaves))
			}
		}
		last = e.t
		p := spans[e.i].Parent
		if e.open {
			active[e.i] = true
			if p >= 0 && active[p] {
				kids[p]++
			}
		} else {
			delete(active, e.i)
			if p >= 0 && active[p] && kids[p] > 0 {
				kids[p]--
			}
		}
	}
	return self
}

// writeSelfTable renders the self-time table, largest self time first,
// with coverage: the share of op wall time the named layers (everything
// but the op roots) account for.
func writeSelfTable(w io.Writer, table map[string]*layerTime, wall float64, roots map[string]bool) error {
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		if table[names[a]].SelfMS != table[names[b]].SelfMS {
			return table[names[a]].SelfMS > table[names[b]].SelfMS
		}
		return names[a] < names[b]
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-40s %10s %14s %14s %8s\n", "layer", "calls", "total_ms", "self_ms", "self_%")
	for _, n := range names {
		r := table[n]
		fmt.Fprintf(bw, "%-40s %10d %14.3f %14.3f %7.2f%%\n", n, r.Calls, r.TotalMS, r.SelfMS, 100*ratio(r.SelfMS, wall))
	}
	fmt.Fprintf(bw, "op wall %.3f ms; layer self times cover %.2f%% of it\n", wall, 100*coverage(table, wall, roots))
	return bw.Flush()
}

// coverage is the share of op wall time the non-root layers' self times
// account for.
func coverage(table map[string]*layerTime, wall float64, roots map[string]bool) float64 {
	var layers float64
	for n, r := range table {
		if !roots[n] {
			layers += r.SelfMS
		}
	}
	return ratio(layers, wall)
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes spans as a Chrome trace, one pid per process
// group (the benchmark process or a child pass).
func writeChrome(w io.Writer, groups [][]span) error {
	var evs []chromeEvent
	for pid, spans := range groups {
		for i, sp := range spans {
			if sp.End < 0 {
				continue
			}
			evs = append(evs, chromeEvent{
				Name: sp.Name, Ph: "X",
				TS: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
				PID: pid + 1, TID: sp.GID,
				Args: map[string]int{"op": sp.Op, "span": i, "parent": sp.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// writeTraceArtifacts writes the traced run's Chrome trace and
// self-time table under the output directory and records the share of
// op wall time the layers cover.
// The Chrome trace holds the first group (process) only, to stay small;
// the table covers them all. roots names the op spans; nil means the
// spans have no op root and coverage is not reported.
func writeTraceArtifacts(cfg *config, out *outcome, groups [][]span, roots map[string]bool) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(cfg.outDir, "trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := writeChrome(f, groups[:1]); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table, wall := selfTimes(groups)
	tablePath := filepath.Join(cfg.outDir, "self-time.txt")
	f, err = os.Create(tablePath)
	if err != nil {
		return err
	}
	if err := writeSelfTable(f, table, wall, roots); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	out.notes = append(out.notes, "chrome trace: "+tracePath, "self-time table: "+tablePath)
	if roots != nil {
		cov := coverage(table, wall, roots)
		out.layers["bench.self_time_coverage_pct"] = 100 * cov
		out.notes = append(out.notes, fmt.Sprintf("layer self times cover %.2f%% of op wall time", 100*cov))
	}
	return nil
}
