package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
	"karma/internal/topo"
)

// refZeROCapacity is the evaluator-driven capacity search the precheck
// search replaced: it costs every batch of the doubling ladder and keeps
// the last feasible one. Kept as the reference the new search must
// reproduce exactly.
func refZeROCapacity(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, samples int, ev Evaluator, o HybridOptions) (int, *Result, error) {
	batch := 1
	best, err := ev.ZeRO(cfg, cl, mp, gpus, batch, samples, o)
	if err != nil {
		return 0, nil, err
	}
	for b := 2; best.Feasible && b <= 1<<12; b *= 2 {
		r, err := ev.ZeRO(cfg, cl, mp, gpus, b, samples, o)
		if err != nil {
			return 0, nil, err
		}
		if !r.Feasible {
			break
		}
		batch, best = b, r
	}
	return batch, best, nil
}

// refPipelineCapacity is the evaluator-driven pipeline capacity search
// (same ladder, floor micro).
func refPipelineCapacity(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, micro, samples int, ev Evaluator, o HybridOptions) (int, *Result, error) {
	batch := micro
	best, err := ev.Pipeline(cfg, cl, stages, gpus, batch, micro, samples, o)
	if err != nil {
		return 0, nil, err
	}
	for b := 2 * micro; best.Feasible && b <= micro<<12; b *= 2 {
		r, err := ev.Pipeline(cfg, cl, stages, gpus, b, micro, samples, o)
		if err != nil {
			return 0, nil, err
		}
		if !r.Feasible {
			break
		}
		batch, best = b, r
	}
	return batch, best, nil
}

// countingEvaluator counts the ZeRO and Pipeline calls it forwards.
type countingEvaluator struct {
	Evaluator
	zero, pipe atomic.Int32
}

func (c *countingEvaluator) ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	c.zero.Add(1)
	return c.Evaluator.ZeRO(cfg, cl, mp, gpus, perReplicaBatch, samples, o)
}

func (c *countingEvaluator) Pipeline(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, perReplicaBatch, micro, samples int, o HybridOptions) (*Result, error) {
	c.pipe.Add(1)
	return c.Evaluator.Pipeline(cfg, cl, stages, gpus, perReplicaBatch, micro, samples, o)
}

// TestCapacitySearchMatchesEvaluatorLoop pins the precheck capacity
// searches to the evaluator-driven loop on every cell the panels search:
// each Turing-NLG (mp, gpus) cell of Fig. 8's tuned ZeRO reference, the
// topology ladder's ZeRO cells, and Fig. 8's pipeline capacity cells,
// under both backends, fp32 and fp16, checkpointing on and off. The
// batch and the marshaled Result must be identical, and the search must
// call the evaluator exactly once.
func TestCapacitySearchMatchesEvaluatorLoop(t *testing.T) {
	cfg := model.TuringNLG()
	flat := hw.ABCI()
	type zeroCell struct {
		cl       hw.Cluster
		mp, gpus int
	}
	var zeroCells []zeroCell
	for _, gpus := range []int{512, 1024, 2048} {
		for _, mp := range []int{2, 4, 8, 16} {
			zeroCells = append(zeroCells, zeroCell{flat, mp, gpus})
		}
	}
	for _, tp := range []topo.Topology{topo.ABCI(), topo.FatTree(2), topo.FatTree(4)} {
		for _, mp := range []int{2, 4, 8, 16} {
			zeroCells = append(zeroCells, zeroCell{flat.WithTopology(tp), mp, 512})
		}
	}
	// The matrix must exercise both ends of the ladder: cells that
	// double past the floor and cells where nothing fits.
	var grown, unfit int
	same := func(t *testing.T, what string, floor, gotB, wantB int, got, want *Result) {
		t.Helper()
		if !want.Feasible {
			unfit++
		} else if wantB > floor {
			grown++
		}
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if gotB != wantB || !bytes.Equal(g, w) {
			t.Errorf("%s: batch %d, %s; want batch %d, %s", what, gotB, g, wantB, w)
		}
	}
	for _, ev := range []Evaluator{Analytic{}, NewPlanned()} {
		for _, prec := range []tensor.Precision{tensor.FP32Training, tensor.MixedFP16} {
			for _, ckpt := range []bool{false, true} {
				o := HybridOptions{Phased: true, Checkpoint: ckpt, Precision: prec}
				t.Run(fmt.Sprintf("%s/%s/ckpt=%v", ev.Name(), prec, ckpt), func(t *testing.T) {
					for _, c := range zeroCells {
						what := fmt.Sprintf("zero %s mp=%d gpus=%d", c.cl.Topo().Name, c.mp, c.gpus)
						wantB, want, err := refZeROCapacity(cfg, c.cl, c.mp, c.gpus, DefaultSamples, ev, o)
						if err != nil {
							t.Fatal(err)
						}
						ce := &countingEvaluator{Evaluator: ev}
						gotB, got, err := ZeROCapacityBatch(cfg, c.cl, c.mp, c.gpus, DefaultSamples, ce, o)
						if err != nil {
							t.Fatal(err)
						}
						same(t, what, 1, gotB, wantB, got, want)
						if n := ce.zero.Load(); n != 1 {
							t.Errorf("%s: %d ZeRO calls, want 1", what, n)
						}
					}
					for _, gpus := range []int{512, 1024, 2048} {
						what := fmt.Sprintf("pipeline gpus=%d", gpus)
						wantB, want, err := refPipelineCapacity(cfg, flat, 16, gpus, 8, DefaultSamples, ev, o)
						if err != nil {
							t.Fatal(err)
						}
						ce := &countingEvaluator{Evaluator: ev}
						gotB, got, err := PipelineCapacityBatch(cfg, flat, 16, gpus, 8, DefaultSamples, ce, o)
						if err != nil {
							t.Fatal(err)
						}
						same(t, what, 8, gotB, wantB, got, want)
						if n := ce.pipe.Load(); n != 1 {
							t.Errorf("%s: %d Pipeline calls, want 1", what, n)
						}
					}
				})
			}
		}
	}
	if grown == 0 || unfit == 0 {
		t.Errorf("matrix is one-sided: %d cells grew past the floor, %d fit nothing", grown, unfit)
	}
}

// TestCapacitySearchErrors: invalid arguments surface as the precheck's
// error before any evaluation, exactly as the evaluator would report
// them.
func TestCapacitySearchErrors(t *testing.T) {
	cfg := model.TuringNLG()
	cl := hw.ABCI()
	ce := &countingEvaluator{Evaluator: Analytic{}}
	if _, _, err := ZeROCapacityBatch(cfg, cl, 0, 512, samples, ce, HybridOptions{}); err == nil {
		t.Error("mp=0 must be rejected")
	}
	if _, _, err := PipelineCapacityBatch(cfg, cl, 16, 512, 0, samples, ce, HybridOptions{}); err == nil {
		t.Error("micro=0 must be rejected")
	}
	if n := ce.zero.Load() + ce.pipe.Load(); n != 0 {
		t.Errorf("%d evaluations on invalid arguments, want 0", n)
	}
}
