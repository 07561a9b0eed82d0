package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadBenchmark reads the repository's BENCHMARK.json, so the tests
// hold the verdict to the committed metrics and bounds.
func loadBenchmark(t *testing.T) benchmark {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// line renders one perfbench result line carrying every end-to-end
// metric of b, each at value base times scale(metric, pair).
func line(b benchmark, workload string, pair int, side string, correct bool, failed int, scale func(metric string, pair int) float64) string {
	metrics := map[string]map[string]float64{}
	for i, m := range b.EndToEnd {
		metrics[m.Name] = map[string]float64{"value": float64(10+i) * scale(m.Name, pair)}
	}
	r, _ := json.Marshal(map[string]any{"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics})
	return fmt.Sprintf("%s %d %s %s\n", workload, pair, side, r)
}

func same(string, int) float64 { return 1 }

// verdict runs ten pairs of every workload, each side's metrics scaled
// by its scale function, and returns the failure reasons and the
// printed table.
func verdict(t *testing.T, baseScale, headScale func(string, int) float64, edit func(workload string, pair int, side string) (correct bool, failed int)) ([]string, string) {
	t.Helper()
	b := loadBenchmark(t)
	var in strings.Builder
	for p := 1; p <= 10; p++ {
		for _, w := range b.Workloads {
			for _, side := range []string{"base", "head"} {
				scale := baseScale
				if side == "head" {
					scale = headScale
				}
				correct, failed := true, 0
				if edit != nil {
					correct, failed = edit(w.Name, p, side)
				}
				in.WriteString(line(b, w.Name, p, side, correct, failed, scale))
			}
		}
	}
	runs, err := parseResults(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	return compare(&out, b, runs), out.String()
}

func TestIdenticalSidesPass(t *testing.T) {
	failures, table := verdict(t, same, same, nil)
	if len(failures) != 0 {
		t.Fatalf("identical sides failed: %v\n%s", failures, table)
	}
	b := loadBenchmark(t)
	if rows := strings.Count(table, "\n") - 1; rows != len(b.Workloads)*len(b.EndToEnd) {
		t.Errorf("table has %d rows, want one per workload and metric (%d):\n%s", rows, len(b.Workloads)*len(b.EndToEnd), table)
	}
}

// worseBy makes head worse than base on one metric by the fraction f
// of the base value, in the metric's direction, in the first n pairs.
func worseBy(t *testing.T, metric string, f float64, n int) func(string, int) float64 {
	b := loadBenchmark(t)
	for _, m := range b.EndToEnd {
		if m.Name == metric {
			return func(name string, pair int) float64 {
				if name != metric || pair > n {
					return 1
				}
				if m.Better == "higher" {
					return 1 - f
				}
				return 1 + f
			}
		}
	}
	t.Fatalf("BENCHMARK.json has no metric %s", metric)
	return nil
}

func TestRegressionPastBoundInMostPairsFails(t *testing.T) {
	b := loadBenchmark(t)
	for _, m := range b.EndToEnd {
		failures, table := verdict(t, same, worseBy(t, m.Name, m.Bound+0.05, 8), nil)
		if len(failures) != len(b.Workloads) {
			t.Errorf("%s worse by %g in 8 of 10 pairs: %d failures, want one per workload: %v\n%s",
				m.Name, m.Bound+0.05, len(failures), failures, table)
			continue
		}
		for i, f := range failures {
			if w := b.Workloads[i].Name; !strings.HasPrefix(f, w+" "+m.Name+":") || !strings.Contains(f, "8 of 10 pairs") {
				t.Errorf("failure %q does not name %s %s and 8 of 10 pairs", f, w, m.Name)
			}
		}
	}
}

func TestRegressionWithinBoundPasses(t *testing.T) {
	b := loadBenchmark(t)
	for _, m := range b.EndToEnd {
		if failures, table := verdict(t, same, worseBy(t, m.Name, m.Bound-0.02, 10), nil); len(failures) != 0 {
			t.Errorf("%s worse by less than its bound failed: %v\n%s", m.Name, failures, table)
		}
	}
}

func TestRegressionInFewPairsPasses(t *testing.T) {
	b := loadBenchmark(t)
	for _, m := range b.EndToEnd {
		// Four pairs far worse, six pairs slightly better: head loses
		// only 4 of 10 pairs though its median is 1% better.
		f := worseBy(t, m.Name, 2*m.Bound+0.5, 4)
		better := worseBy(t, m.Name, -0.01, 10)
		scale := func(name string, pair int) float64 {
			if pair > 4 {
				return better(name, pair)
			}
			return f(name, pair)
		}
		if failures, table := verdict(t, same, scale, nil); len(failures) != 0 {
			t.Errorf("%s worse in only 4 of 10 pairs failed: %v\n%s", m.Name, failures, table)
		}
	}
}

// TestWorseMedianInHalfThePairsPasses checks the second condition: a
// median past the bound fails only if head also loses most pairs. Base
// is low in pairs 1-5 and high in 6-10; head sits near the high value,
// so its median is far worse while it loses only pairs 1-5.
func TestWorseMedianInHalfThePairsPasses(t *testing.T) {
	b := loadBenchmark(t)
	for _, m := range b.EndToEnd {
		lo, hi, head := 1.0, 10.0, 9.0
		if m.Better == "higher" {
			lo, hi, head = 10, 1, 1.1
		}
		base := func(name string, pair int) float64 {
			switch {
			case name != m.Name:
				return 1
			case pair <= 5:
				return lo
			}
			return hi
		}
		headScale := func(name string, pair int) float64 {
			if name != m.Name {
				return 1
			}
			return head
		}
		failures, table := verdict(t, base, headScale, nil)
		if len(failures) != 0 {
			t.Errorf("%s: head worse in only 5 of 10 pairs failed: %v\n%s", m.Name, failures, table)
		}
		if !strings.Contains(table, " 5/10 ") {
			t.Errorf("%s: table does not show 5 of 10 pairs lost:\n%s", m.Name, table)
		}
	}
}

func TestIncorrectRunFails(t *testing.T) {
	for _, side := range []string{"base", "head"} {
		failures, _ := verdict(t, same, same, func(w string, pair int, s string) (bool, int) {
			if w == "serve-zipf" && pair == 3 && s == side {
				return false, 0
			}
			return true, 0
		})
		if len(failures) != 1 || failures[0] != "serve-zipf pair 3 "+side+": correct:false (0 of 1000 ops failed)" {
			t.Errorf("a correct:false %s run: failures %q", side, failures)
		}
	}
}

func TestHigherFailedShareFails(t *testing.T) {
	failures, _ := verdict(t, same, same, func(w string, pair int, s string) (bool, int) {
		if w == "cluster-panels" && s == "head" && pair == 7 {
			return true, 2
		}
		if w == "cluster-panels" && s == "base" && pair == 2 {
			return true, 1
		}
		return true, 0
	})
	want := "cluster-panels: head failed 2 of 10000 ops, base 1 of 10000"
	if len(failures) != 1 || failures[0] != want {
		t.Errorf("failures %q, want [%q]", failures, want)
	}
}

func TestMissingWorkloadOrMetricFails(t *testing.T) {
	b := loadBenchmark(t)
	var in strings.Builder
	for _, w := range b.Workloads[1:] {
		in.WriteString(line(b, w.Name, 1, "base", true, 0, same))
		in.WriteString(strings.Replace(line(b, w.Name, 1, "head", true, 0, same), `"setup_s"`, `"setup_x"`, 1))
	}
	runs, err := parseResults(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	failures := compare(io.Discard, b, runs)
	want := []string{b.Workloads[0].Name + ": no pair ran"}
	for _, w := range b.Workloads[1:] {
		want = append(want, w.Name+" pair 1: setup_s missing")
	}
	if strings.Join(failures, "\n") != strings.Join(want, "\n") {
		t.Errorf("failures %q, want %q", failures, want)
	}
}

func TestParseResultsRejectsMalformedLines(t *testing.T) {
	for _, in := range []string{
		"single-gpu-plan 1 base\n",
		"single-gpu-plan x base {}\n",
		"single-gpu-plan 1 left {}\n",
		"single-gpu-plan 1 base {\n",
		"single-gpu-plan 1 base {}\nsingle-gpu-plan 1 base {}\n",
		"single-gpu-plan 1 base {}\nsingle-gpu-plan 1 head {}\nsingle-gpu-plan 2 head {}\n",
	} {
		if _, err := parseResults(strings.NewReader(in)); err == nil {
			t.Errorf("%q parsed without error", in)
		}
	}
}

func TestQuartiles(t *testing.T) {
	if got, want := quartiles([]float64{4, 1, 3, 2, 5}), [3]float64{2, 3, 4}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{1, 2, 3, 4}), [3]float64{1.75, 2.5, 3.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
