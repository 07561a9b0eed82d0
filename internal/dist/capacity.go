package dist

import (
	"karma/internal/hw"
	"karma/internal/model"
)

// The capacity searches answer "how large a per-replica batch does this
// baseline train at?" — the operational rule of the ZeRO and pipeline
// references (a deployment maximizes the per-GPU batch before scaling
// out). Both walk a doubling ladder on the feasibility precheck the two
// backends share by contract (hybridSetup, pipelineSetup): the precheck
// IS the verdict every Evaluator returns, so the ladder never needs a
// costed result, and the evaluator runs once, at the winning batch.

// capacityLadder is the number of doublings above the floor a capacity
// search probes (the ladder tops out at floor<<capacityLadder).
const capacityLadder = 12

// capacityBatch walks floor, 2·floor, … floor<<capacityLadder while fits
// holds and returns the last batch that fit — or floor when none does, so
// the caller's one evaluation renders the infeasible cell.
func capacityBatch(floor int, fits func(batch int) (bool, error)) (int, error) {
	batch := floor
	for b := floor; b <= floor<<capacityLadder; b *= 2 {
		ok, err := fits(b)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		batch = b
	}
	return batch, nil
}

// ZeROCapacityBatch returns the largest power-of-two per-replica batch
// at which the ZeRO hybrid stays feasible on the cluster, together with
// ev's evaluation at that batch — the operational rule of the ZeRO
// baseline (maximize the per-GPU batch), and the "true global batch"
// calibration of the Fig. 8 right panel: comparing epoch times against
// an artificially small ZeRO batch inflates KARMA's advantage to ~4.5x
// where the paper reports ~1.35x. Under o.Precision == MixedFP16 the
// capacity batch is the fp16 one — the batch headroom the real
// Turing-NLG run had. The search runs on the shared precheck
// (hybridSetup) and calls ev.ZeRO exactly once. When no batch fits, the
// batch-1 infeasible Result is returned so sweeps can render the cell;
// errors are reserved for invalid arguments.
func ZeROCapacityBatch(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, samples int, ev Evaluator, o HybridOptions) (int, *Result, error) {
	batch, err := capacityBatch(1, func(b int) (bool, error) {
		_, _, _, bad, err := hybridSetup(cfg, cl, mp, gpus, b, samples, true, o)
		return bad == nil, err
	})
	if err != nil {
		return 0, nil, err
	}
	r, err := ev.ZeRO(cfg, cl, mp, gpus, batch, samples, o)
	if err != nil {
		return 0, nil, err
	}
	return batch, r, nil
}

// PipelineCapacityBatch returns the largest power-of-two multiple of
// micro at which the pipeline stays feasible (micro-batch count held
// fixed), with ev's evaluation at that batch — the same operational rule
// as ZeROCapacityBatch, and like it searched on the shared precheck
// (pipelineSetup) with exactly one ev.Pipeline call. When no batch fits,
// the batch-`micro` infeasible Result is returned so sweeps can render
// the cell.
func PipelineCapacityBatch(cfg model.TransformerConfig, cl hw.Cluster, stages, gpus, micro, samples int, ev Evaluator, o HybridOptions) (int, *Result, error) {
	batch, err := capacityBatch(micro, func(b int) (bool, error) {
		_, _, bad, err := pipelineSetup(cfg, cl, stages, gpus, b, micro, samples, o)
		return bad == nil, err
	})
	if err != nil {
		return 0, nil, err
	}
	r, err := ev.Pipeline(cfg, cl, stages, gpus, batch, micro, samples, o)
	if err != nil {
		return 0, nil, err
	}
	return batch, r, nil
}
