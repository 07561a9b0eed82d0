package dist_test

import (
	"testing"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/hw"
)

// TestRecordingParallelPanel renders the Fig. 8 Turing panel from four
// workers through one recording evaluator (run it under -race): every
// feasible planned-tagged cell, ZeRO's capacity-swept winner included,
// must find the plan it was costed on.
func TestRecordingParallelPanel(t *testing.T) {
	rec := dist.NewPlanned().Recording()
	panel, err := experiments.Figure8Turing(hw.ABCI(), []int{512, 1024}, rec,
		experiments.FamilyOptions{Ckpt: true, Pipeline: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, row := range panel.Rows {
		for _, m := range panel.Methods {
			r := row.Results[m]
			if !r.Feasible || r.Backend != "planned" {
				continue
			}
			cells++
			ex, err := rec.Recorded(r, nil)
			if err != nil {
				t.Errorf("%s@%d: %v", m, row.GPUs, err)
				continue
			}
			if ex.Result != r || len(ex.Timeline.Ops) == 0 {
				t.Errorf("%s@%d: export does not describe the cell", m, row.GPUs)
			}
		}
	}
	if cells == 0 {
		t.Fatal("no feasible planned cell to check")
	}
}
