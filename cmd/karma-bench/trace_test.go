package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/trace"
)

// TestWritePanelTraces: -trace-out writes the same files, byte for byte,
// whichever backend rendered the table, and each file is the Chrome
// trace of the plan the matching dist.Export* call returns for the
// row's winning cell.
func TestWritePanelTraces(t *testing.T) {
	cl := hw.ABCI()
	fo := experiments.FamilyOptions{Ckpt: true, Workers: 2}
	megatron, turing := model.MegatronConfigs()[2], model.TuringNLG()
	panels := []struct {
		render func(dist.Evaluator) (*experiments.Fig8Panel, error)
		// export re-evaluates one cell through the export API.
		export func(pe *dist.Planned, method string, gpus int) (*dist.PlanExport, error)
	}{
		{
			func(ev dist.Evaluator) (*experiments.Fig8Panel, error) {
				return experiments.Figure8Megatron(cl, 2, []int{128, 256}, ev, fo)
			},
			func(pe *dist.Planned, method string, gpus int) (*dist.PlanExport, error) {
				ho := dist.HybridOptions{Checkpoint: true}
				switch method {
				case "karma-dp":
					return pe.ExportKARMA(model.Transformer(megatron), cl, gpus, 4, dist.DefaultSamples, dist.KARMAOptions{})
				case "mp+dp-opt":
					ho.Phased = true
					fallthrough
				case "mp+dp":
					return pe.ExportHybrid(megatron, cl, 4, gpus, 4, dist.DefaultSamples, false, ho)
				}
				return nil, fmt.Errorf("no export for method %q", method)
			},
		},
		{
			func(ev dist.Evaluator) (*experiments.Fig8Panel, error) {
				return experiments.Figure8Turing(cl, []int{512}, ev, fo)
			},
			func(pe *dist.Planned, method string, gpus int) (*dist.PlanExport, error) {
				switch method {
				case "karma-dp", "zero+karma":
					o := dist.KARMAOptions{ZeROShard: method == "zero+karma"}
					return pe.ExportKARMA(model.Transformer(turing), cl, gpus, 2, dist.DefaultSamples, o)
				}
				return nil, fmt.Errorf("no export for method %q", method)
			},
		},
	}
	analyticDir, plannedDir := t.TempDir(), t.TempDir()
	for _, p := range panels {
		shown, err := p.render(dist.Analytic{})
		if err != nil {
			t.Fatal(err)
		}
		rec := dist.NewPlanned().Recording()
		recorded, err := p.render(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := writePanelTraces(analyticDir, shown, recorded, rec); err != nil {
			t.Fatalf("analytic panel: %v", err)
		}
		rec = dist.NewPlanned().Recording()
		planned, err := p.render(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := writePanelTraces(plannedDir, planned, planned, rec); err != nil {
			t.Fatalf("planned panel: %v", err)
		}

		pe := dist.NewPlanned()
		for _, row := range planned.Rows {
			written := 0
			for _, m := range planned.Methods {
				name := fmt.Sprintf("fig8-%s-%dgpus-%s.json", planned.Model, row.GPUs, m)
				got, err := os.ReadFile(filepath.Join(plannedDir, name))
				if os.IsNotExist(err) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				written++
				ex, err := p.export(pe, m, row.GPUs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var want bytes.Buffer
				if err := trace.WriteChrome(&want, trace.Collect(ex.Compiled.Ops, ex.Timeline)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("%s differs from the trace of its dist.Export* plan", name)
				}
			}
			if written != 1 {
				t.Errorf("%s@%d: %d traces written, want the winner's one", planned.Model, row.GPUs, written)
			}
		}
	}

	names := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	fromAnalytic, fromPlanned := names(analyticDir), names(plannedDir)
	if fmt.Sprint(fromAnalytic) != fmt.Sprint(fromPlanned) {
		t.Fatalf("trace files differ by backend:\nanalytic %v\nplanned  %v", fromAnalytic, fromPlanned)
	}
	if len(fromPlanned) != 3 {
		t.Errorf("wrote %d traces, want one per row (3): %v", len(fromPlanned), fromPlanned)
	}
	for _, name := range fromPlanned {
		x, err := os.ReadFile(filepath.Join(analyticDir, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(plannedDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between the analytic and the planned rendering", name)
		}
	}
}
