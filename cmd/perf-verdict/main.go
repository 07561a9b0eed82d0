// Command perf-verdict decides the perfbench regression gate: it
// compares paired runs of a base and a head commit against the
// end-to-end metrics, directions and bounds that BENCHMARK.json
// declares, prints one row per workload and metric, and exits 1 on a
// regression. scripts/perf-gate.sh runs the pairs and then calls it.
//
// Usage:
//
//	perf-verdict BENCHMARK.json results.txt
//
// Each line of results.txt is "<workload> <pair> <base|head> <result>",
// where <result> is the JSON object perfbench prints last.
//
// The gate fails when a run reports correct:false, when head fails a
// larger share of its ops than base, when a declared workload has no
// pair or a run lacks a declared metric, or when head's median
// on a metric is worse than base's by more than the metric's bound and
// head is worse in most pairs. Exit status: 0 pass, 1 regression, 2
// unusable input.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmark is the part of BENCHMARK.json the verdict reads.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is perfbench's last line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is the base and head runs of one workload with one seed; pair n
// runs seed n.
type pair struct {
	n          int
	base, head *result
}

var sides = [2]string{"base", "head"}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perf-verdict BENCHMARK.json results.txt")
		os.Exit(2)
	}
	b, runs, err := load(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf-verdict: %v\n", err)
		os.Exit(2)
	}
	failures := compare(os.Stdout, b, runs)
	if len(failures) == 0 {
		fmt.Println("perf-gate: pass")
		return
	}
	for _, f := range failures {
		fmt.Println("perf-gate: FAIL " + f)
	}
	os.Exit(1)
}

func load(benchPath, resultsPath string) (benchmark, map[string][]pair, error) {
	var b benchmark
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return b, nil, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	if len(b.Workloads) == 0 || len(b.EndToEnd) == 0 {
		return b, nil, fmt.Errorf("%s declares no workloads or no end-to-end metrics", benchPath)
	}
	for _, m := range b.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return b, nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", benchPath, m.Name, m.Better)
		}
	}
	f, err := os.Open(resultsPath)
	if err != nil {
		return b, nil, err
	}
	defer f.Close()
	runs, err := parseResults(f)
	if err != nil {
		return b, nil, fmt.Errorf("%s: %w", resultsPath, err)
	}
	return b, runs, nil
}

// parseResults groups the result lines by workload into complete pairs
// ordered by pair number.
func parseResults(r io.Reader) (map[string][]pair, error) {
	byN := map[string]map[int]*pair{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		fields := strings.SplitN(sc.Text(), " ", 4)
		if len(fields) != 4 {
			return nil, fmt.Errorf("line %d: want \"<workload> <pair> <side> <result>\"", line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: pair: %w", line, err)
		}
		res := new(result)
		if err := json.Unmarshal([]byte(fields[3]), res); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		w := fields[0]
		if byN[w] == nil {
			byN[w] = map[int]*pair{}
		}
		p := byN[w][n]
		if p == nil {
			p = &pair{n: n}
			byN[w][n] = p
		}
		var side **result
		switch fields[2] {
		case sides[0]:
			side = &p.base
		case sides[1]:
			side = &p.head
		default:
			return nil, fmt.Errorf("line %d: side %q is neither base nor head", line, fields[2])
		}
		if *side != nil {
			return nil, fmt.Errorf("line %d: second %s run of %s pair %d", line, fields[2], w, n)
		}
		*side = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	runs := map[string][]pair{}
	for w, ps := range byN {
		for _, p := range ps {
			if p.base == nil || p.head == nil {
				return nil, fmt.Errorf("%s pair %d: a side did not run", w, p.n)
			}
			runs[w] = append(runs[w], *p)
		}
		sort.Slice(runs[w], func(i, j int) bool { return runs[w][i].n < runs[w][j].n })
	}
	return runs, nil
}

// compare writes the per-metric table to w and returns the reasons the
// gate fails, in BENCHMARK.json order; none means pass.
func compare(w io.Writer, b benchmark, runs map[string][]pair) []string {
	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tchange\thead worse\tverdict")
	for _, wl := range b.Workloads {
		pairs := runs[wl.Name]
		if len(pairs) == 0 {
			fail("%s: no pair ran", wl.Name)
			continue
		}
		var attempted, failed [2]int
		for _, p := range pairs {
			for i, r := range [2]*result{p.base, p.head} {
				if !r.Correct {
					fail("%s pair %d %s: correct:false (%d of %d ops failed)", wl.Name, p.n, sides[i], r.Failed, r.Attempted)
				}
				attempted[i] += r.Attempted
				failed[i] += r.Failed
			}
		}
		// Cross-multiplied, so a side that attempted nothing needs no
		// special case.
		if failed[1]*attempted[0] > failed[0]*attempted[1] {
			fail("%s: head failed %d of %d ops, base %d of %d", wl.Name, failed[1], attempted[1], failed[0], attempted[0])
		}
		for _, m := range b.EndToEnd {
			base, head := make([]float64, 0, len(pairs)), make([]float64, 0, len(pairs))
			losses := 0
			for _, p := range pairs {
				bv, bok := p.base.Metrics[m.Name]
				hv, hok := p.head.Metrics[m.Name]
				if !bok || !hok {
					fail("%s pair %d: %s missing", wl.Name, p.n, m.Name)
					continue
				}
				base, head = append(base, bv.Value), append(head, hv.Value)
				if m.worse(hv.Value, bv.Value, 0) {
					losses++
				}
			}
			if len(base) == 0 {
				continue
			}
			bq, hq := quartiles(base), quartiles(head)
			verdict := "ok"
			if m.worse(hq[1], bq[1], m.Bound) && 2*losses > len(base) {
				verdict = "FAIL"
				fail("%s %s: head median %.4g is worse than base %.4g by more than %g%%, and head is worse in %d of %d pairs",
					wl.Name, m.Name, hq[1], bq[1], 100*m.Bound, losses, len(base))
			}
			change := "n/a"
			if bq[1] != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(hq[1]-bq[1])/bq[1])
			}
			fmt.Fprintf(tw, "%s\t%s\t%s [%s, %s]\t%s [%s, %s]\t%s\t%d/%d\t%s\n", wl.Name, m.Name,
				num(bq[1]), num(bq[0]), num(bq[2]), num(hq[1]), num(hq[0]), num(hq[2]), change, losses, len(base), verdict)
		}
	}
	tw.Flush()
	return failures
}

// worse reports whether head is worse than base by more than the
// fraction bound of base, in the metric's direction.
func (m metricSpec) worse(head, base, bound float64) bool {
	if m.Better == "higher" {
		return head < base*(1-bound)
	}
	return head > base*(1+bound)
}

// num renders a metric value with four significant digits, without an
// exponent for the large rates.
func num(v float64) string {
	if v >= 1000 || v <= -1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		q[i] = s[lo]
		if lo+1 < len(s) {
			q[i] += (pos - float64(lo)) * (s[lo+1] - s[lo])
		}
	}
	return q
}
