package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/trace"
)

// writePanelTraces writes the plan behind the fastest feasible method of
// every panel row as a Chrome trace under dir (karma-bench -trace-out).
// The winner is picked from shown, the panel the table prints; its plan
// is the one rec recorded for the same cell of recorded, the same panel
// rendered through rec (shown itself under the planned backend). The
// export is the planner's timeline by definition, whichever backend
// rendered the table.
func writePanelTraces(dir string, shown, recorded *experiments.Fig8Panel, rec *dist.Planned) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, row := range shown.Rows {
		winner := ""
		var best *dist.Result
		for _, m := range shown.Methods {
			r := row.Results[m]
			if r != nil && r.Feasible && (best == nil || r.EpochTime < best.EpochTime) {
				winner, best = m, r
			}
		}
		if winner == "" {
			continue // every method infeasible at this scale
		}
		ex, err := rec.Recorded(recorded.Rows[i].Results[winner], nil)
		if err != nil {
			return fmt.Errorf("trace %s@%d: %w", winner, row.GPUs, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, trace.Collect(ex.Compiled.Ops, ex.Timeline)); err != nil {
			return err
		}
		name := fmt.Sprintf("fig8-%s-%dgpus-%s.json", shown.Model, row.GPUs, winner)
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
