package dist

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
)

// recordedCase is one configuration per family, evaluated through any
// evaluator.
type recordedCase struct {
	name string
	eval func(ev Evaluator) (*Result, error)
}

// recordedCases covers the five families, KARMA both fully in-core
// (closed-form verdict) and activation-streaming.
func recordedCases() []recordedCase {
	g, stream := streamingConfig()
	cl := hw.ABCI()
	cfgs := model.MegatronConfigs()
	ckpt := HybridOptions{Phased: true, Checkpoint: true}
	return []recordedCase{
		{"karma-dp/streaming", func(ev Evaluator) (*Result, error) {
			return ev.KARMADataParallel(g, stream, 16, 8, samples, KARMAOptions{})
		}},
		{"karma-dp/in-core", func(ev Evaluator) (*Result, error) {
			return ev.KARMADataParallel(g, cl, 16, 8, samples, KARMAOptions{})
		}},
		{"dp", func(ev Evaluator) (*Result, error) {
			return ev.DataParallel(g, cl, 16, 8, samples)
		}},
		{"mp+dp", func(ev Evaluator) (*Result, error) {
			return ev.MegatronHybrid(cfgs[2], cl, 4, 256, 4, samples, HybridOptions{Checkpoint: true})
		}},
		{"zero", func(ev Evaluator) (*Result, error) {
			return ev.ZeRO(cfgs[1], cl, 2, 64, 2, samples, ckpt)
		}},
		{"pipeline", func(ev Evaluator) (*Result, error) {
			return ev.Pipeline(cfgs[2], cl, 4, 256, 4, 4, samples, ckpt)
		}},
	}
}

// TestRecordingMatchesEvaluation: recording changes no verdict. For
// every family the recording evaluator's result deep-equals an
// unrecorded evaluation of the same configuration, and the export
// carries that very result next to a complete plan (dp, whose exchange
// is closed-form, has none).
func TestRecordingMatchesEvaluation(t *testing.T) {
	pe := NewPlanned()
	for _, c := range recordedCases() {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.eval(pe)
			if err != nil {
				t.Fatal(err)
			}
			rec := pe.Recording()
			got, err := c.eval(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recorded result differs:\n got %+v\nwant %+v", got, want)
			}
			ex, err := rec.Recorded(got, nil)
			if c.name == "dp" {
				if err == nil || !strings.Contains(err.Error(), "no plan recorded") {
					t.Fatalf("dp export: got %v, want a no-plan error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ex.Result != got {
				t.Error("export does not carry the recorded result")
			}
			if ex.Plan == nil || ex.Compiled == nil || ex.Timeline == nil || ex.Budget <= 0 {
				t.Fatalf("incomplete export: %+v", ex)
			}
			if len(ex.Compiled.Ops) == 0 || len(ex.Compiled.Ops) != len(ex.Timeline.Ops) {
				t.Fatalf("ops/timeline mismatch: %d vs %d", len(ex.Compiled.Ops), len(ex.Timeline.Ops))
			}
		})
	}
}

// TestRecordedHybridIsCostedPlan extends TestExportKARMAIsCostedPlan to
// the hybrids: their update is a scheduled op, so the recorded
// timeline's makespan is the verdict's IterTime exactly. Both are
// evaluated before either is checked, so a recorded plan that aliased
// reusable scratch would show the later evaluation's timeline.
func TestRecordedHybridIsCostedPlan(t *testing.T) {
	rec := NewPlanned().Recording()
	results := map[string]*Result{}
	for _, c := range recordedCases() {
		if c.name != "mp+dp" && c.name != "zero" {
			continue
		}
		res, err := c.eval(rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		results[c.name] = res
	}
	for name, res := range results {
		ex, err := rec.Recorded(res, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Backend != "planned" {
			t.Fatalf("%s: backend %q, want planned", name, res.Backend)
		}
		if ex.Timeline.Makespan != res.IterTime {
			t.Errorf("%s: recorded makespan %v, costed IterTime %v", name, ex.Timeline.Makespan, res.IterTime)
		}
	}
}

// TestRecordedFallback: a result that fell back to the closed form has
// no plan; its export reports the simulation error behind the fallback.
func TestRecordedFallback(t *testing.T) {
	pe := NewPlanned()
	pe.failSim = true
	rec := pe.Recording()
	for _, c := range recordedCases() {
		if c.name == "dp" {
			continue
		}
		res, err := c.eval(rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ex, err := rec.Recorded(res, nil)
		if !errors.Is(err, errForcedFallback) || ex != nil {
			t.Errorf("%s: export = %v, %v; want no plan and the fallback error", c.name, ex, err)
		}
	}
}

// TestRecordedErrors: evaluation errors pass through, infeasible
// verdicts keep their reason, and results unknown to the log (another
// evaluator's, or any result of a non-recording evaluator) have no plan.
func TestRecordedErrors(t *testing.T) {
	cl := hw.ABCI()
	cfg := model.MegatronConfigs()[2]
	rec := NewPlanned().Recording()
	boom := errors.New("boom")
	if _, err := rec.Recorded(nil, boom); err != boom {
		t.Errorf("evaluation error: got %v", err)
	}
	bad, err := rec.MegatronHybrid(cfg, cl, 4, 10, 4, samples, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recorded(bad, nil); err == nil || !strings.Contains(err.Error(), "no plan for an infeasible configuration: "+bad.Reason) {
		t.Errorf("infeasible: got %v", err)
	}
	plain := NewPlanned()
	ok, err := plain.MegatronHybrid(cfg, cl, 4, 256, 4, samples, HybridOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range []*Planned{rec, plain} {
		if _, err := pe.Recorded(ok, nil); err == nil || !strings.Contains(err.Error(), "no plan recorded") {
			t.Errorf("unrecorded result: got %v", err)
		}
	}
}
