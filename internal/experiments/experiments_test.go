package experiments

import (
	"strings"
	"testing"

	"karma/internal/baseline"
	"karma/internal/dist"
	"karma/internal/hw"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"hello"},
	}
	s := tab.String()
	for _, want := range []string{"demo", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in rendering:\n%s", want, s)
		}
	}
}

func TestCalibratedOverheadBoundaries(t *testing.T) {
	// The §III-D calibration must place every Fig. 5 feasibility boundary
	// after the first batch size: batch[0] fits, batch[1] does not.
	node := hw.ABCINode()
	for _, w := range Fig5Workloads() {
		w := w
		t.Run(w.Model, func(t *testing.T) {
			f, err := CalibratedOverhead(w, node)
			if err != nil {
				t.Fatalf("CalibratedOverhead: %v", err)
			}
			if f < 1 {
				t.Fatalf("overhead %v < 1", f)
			}
			p0, err := ProfileWorkload(w, node, w.Batches[0])
			if err != nil {
				t.Fatal(err)
			}
			if !p0.FitsInCore() {
				t.Errorf("first batch %d should fit in-core (overhead %v)", w.Batches[0], f)
			}
			p1, err := ProfileWorkload(w, node, w.Batches[1])
			if err != nil {
				t.Fatal(err)
			}
			if p1.FitsInCore() {
				t.Errorf("second batch %d should NOT fit in-core (overhead %v)", w.Batches[1], f)
			}
		})
	}
}

func TestFigure5PanelResNet50(t *testing.T) {
	node := hw.ABCINode()
	panel, err := Figure5Panel(Fig5Workloads()[0], node)
	if err != nil {
		t.Fatalf("Figure5Panel: %v", err)
	}
	if len(panel.Points) != 6 {
		t.Fatalf("points = %d", len(panel.Points))
	}
	first := panel.Points[0]
	if !first.Results[baseline.InCore].Feasible {
		t.Error("first point must be in-core feasible")
	}
	for _, pt := range panel.Points[1:] {
		if pt.Results[baseline.InCore].Feasible {
			t.Errorf("batch %d: in-core should be infeasible", pt.Batch)
		}
		k := pt.Results[baseline.KARMARecompute]
		if !k.Feasible {
			t.Fatalf("batch %d: KARMA infeasible: %s", pt.Batch, k.Reason)
		}
		// The headline ordering: KARMA w/recompute at least matches the
		// eager out-of-core methods.
		for _, m := range []baseline.Method{baseline.VDNNPP, baseline.SuperNeurons} {
			r := pt.Results[m]
			if r.Feasible && r.Throughput > k.Throughput*1.001 {
				t.Errorf("batch %d: %s (%.1f) beats KARMA w/recompute (%.1f)",
					pt.Batch, m, r.Throughput, k.Throughput)
			}
		}
		// KARMA w/recompute >= plain KARMA.
		plain := pt.Results[baseline.KARMA]
		if plain.Feasible && plain.Throughput > k.Throughput*1.001 {
			t.Errorf("batch %d: plain KARMA (%.1f) beats KARMA w/recompute (%.1f)",
				pt.Batch, plain.Throughput, k.Throughput)
		}
	}
	// Performance degrades gracefully, not off a cliff: at 2x the memory
	// limit KARMA keeps a large fraction of the in-core rate.
	inCoreRate := first.Results[baseline.InCore].Throughput
	ooc2x := panel.Points[1].Results[baseline.KARMARecompute].Throughput
	if ooc2x < inCoreRate*0.4 {
		t.Errorf("2x batch keeps only %.0f%% of in-core rate", 100*ooc2x/inCoreRate)
	}
	// The table renders every point.
	tab := panel.Table()
	if len(tab.Rows) != len(panel.Points) {
		t.Error("table row count mismatch")
	}
}

func TestFigure5AverageSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 5 grid in -short mode")
	}
	node := hw.ABCINode()
	panels, err := Figure5(node)
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if len(panels) != 6 {
		t.Fatalf("panels = %d", len(panels))
	}
	s := AverageSpeedup(panels)
	// Paper: 1.52x average over the SOTA out-of-core methods. Shape
	// check: meaningfully above 1.2x and below 3x.
	if s < 1.2 || s > 3.0 {
		t.Errorf("average speedup = %.2fx, want within [1.2, 3.0] (paper: 1.52x)", s)
	}
	t.Logf("average speedup over SOTA OOC: %.2fx (paper: 1.52x)", s)
}

func TestFigure6StallProfile(t *testing.T) {
	node := hw.ABCINode()
	series, err := Figure6(node)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	byMethod := map[baseline.Method]Fig6Series{}
	for _, s := range series {
		byMethod[s.Method] = s
	}
	vdnn := byMethod[baseline.VDNNPP]
	karmaRe := byMethod[baseline.KARMARecompute]
	// vDNN++ suffers an early large spike (the fwd->bwd transition).
	if len(vdnn.Entries) == 0 || vdnn.Entries[0].Normalized <= 1.0 {
		t.Error("vDNN++ should spike at the first backward block")
	}
	// KARMA w/recompute's total stall must undercut vDNN++ and
	// SuperNeurons (the Fig. 6 takeaway).
	for _, m := range []baseline.Method{baseline.VDNNPP, baseline.SuperNeurons} {
		if karmaRe.TotalStallSec > byMethod[m].TotalStallSec {
			t.Errorf("KARMA w/recompute stall %.4fs exceeds %s %.4fs",
				karmaRe.TotalStallSec, m, byMethod[m].TotalStallSec)
		}
	}
	tab := Fig6Table(series)
	if len(tab.Rows) != 4 {
		t.Errorf("fig6 table rows = %d", len(tab.Rows))
	}
}

func TestFigure7Blocking(t *testing.T) {
	node := hw.ABCINode()
	r, err := Figure7(node)
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	if r.Schedule.NumBlocks() < 2 {
		t.Error("blocking should produce multiple blocks")
	}
	// Fig. 7's property: the blocking balances data movement against
	// compute — stalls drop versus both eager baselines (paper: 43% and
	// 37%).
	for m, red := range r.StallReduction {
		if red <= 0 {
			t.Errorf("stall reduction vs %s = %.0f%%, want positive", m, 100*red)
		}
	}
	if r.Plan == "" {
		t.Error("empty plan string")
	}
	tab := r.Table()
	if len(tab.Rows) != r.Schedule.NumBlocks() {
		t.Error("fig7 table row mismatch")
	}
	if f := r.SwappedFraction(); f < 0 || f > 1 {
		t.Errorf("swapped fraction = %v", f)
	}
}

func TestTableIStatic(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 8 {
		t.Fatalf("Table I rows = %d, want 8", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if !strings.Contains(last[0], "KARMA") {
		t.Error("last row should be KARMA")
	}
	for _, c := range last[2:] {
		if c == "no" {
			t.Error("KARMA row must have no 'no' capabilities (Table I)")
		}
	}
}

func TestEquivalenceExperiment(t *testing.T) {
	rs, err := Equivalence()
	if err != nil {
		t.Fatalf("Equivalence: %v", err)
	}
	if len(rs) != 4 {
		t.Fatalf("scenarios = %d", len(rs))
	}
	for _, r := range rs[1:] {
		if r.MaxAbsDiff != 0 {
			t.Errorf("%s: max deviation %g, want 0 (bitwise identical)", r.Scenario, r.MaxAbsDiff)
		}
	}
	if rs[1].SwappedBytes == 0 {
		t.Error("OOC scenario recorded no swap traffic")
	}
	tab := EquivalenceTable(rs)
	if len(tab.Rows) != 4 {
		t.Error("equivalence table row mismatch")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	rs, err := Ablations(hw.ABCINode(), hw.ABCI(), dist.Analytic{}, 0)
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	if len(rs) != 6 {
		t.Fatalf("studies = %d, want 6", len(rs))
	}
	byID := map[string]AblationResult{}
	for _, r := range rs {
		byID[r.ID] = r
		if r.Value <= 0 {
			t.Errorf("%s: non-positive value", r.ID)
		}
	}
	// The core design choices must pay off.
	if byID["A1"].Value < 1 {
		t.Errorf("A1: capacity-based schedule should beat eager (got %.3f)", byID["A1"].Value)
	}
	if byID["A2"].Value < 1 {
		t.Errorf("A2: recompute interleave should help (got %.3f)", byID["A2"].Value)
	}
	if byID["A3"].Value < 1 {
		t.Errorf("A3: phased exchange should help (got %.3f)", byID["A3"].Value)
	}
	if byID["A4"].Value < 1 {
		t.Errorf("A4: GPU-side update should not be faster (got %.3f)", byID["A4"].Value)
	}
	if v := byID["A5"].Value; v < 0.95 || v > 1.05 {
		t.Errorf("A5: the ant-colony and balanced Opt-1 backends should agree within 5%% (got %.3f)", v)
	}
	if byID["A6"].Value < 1 {
		t.Errorf("A6: fine blocking should not lose to coarse (got %.3f)", byID["A6"].Value)
	}
	tab := AblationTable(rs)
	if len(tab.Rows) != 6 {
		t.Error("ablation table rows mismatch")
	}
}
