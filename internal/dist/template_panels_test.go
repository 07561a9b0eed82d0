package dist_test

import (
	"testing"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

// TestTemplatesMatchFreshLoweringOnPanels regenerates every planned
// cell of Fig. 8 (Megatron configs 0–4 and Turing, with the ZeRO
// capacity cells and zero+karma), Table IV, Table V and the topology
// ladder, in fp32 and fp16 with checkpointing on and off, through an
// evaluator that pins each KARMA-DP and MP+DP/ZeRO grid point's
// templated lowering to a fresh one (dist.NewShapeChecker).
func TestTemplatesMatchFreshLoweringOnPanels(t *testing.T) {
	cl := hw.ABCI()
	for _, prec := range []tensor.Precision{tensor.FP32Training, tensor.MixedFP16} {
		for _, ckpt := range []bool{false, true} {
			ev, checked := dist.NewShapeChecker(t)
			fo := experiments.FamilyOptions{Ckpt: ckpt, Precision: prec, Pipeline: true, Workers: 2}
			for c := range model.MegatronConfigs() {
				if _, err := experiments.Figure8Megatron(cl, c, []int{128, 256, 512, 1024, 2048}, ev, fo); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := experiments.Figure8Turing(cl, []int{512, 1024, 2048}, ev, fo); err != nil {
				t.Fatal(err)
			}
			if _, err := experiments.TableIV(cl, ev, fo); err != nil {
				t.Fatal(err)
			}
			if _, err := experiments.TopologySweep(cl, 512, experiments.TopoLadder(), ev, fo); err != nil {
				t.Fatal(err)
			}
			if prec == tensor.FP32Training && !ckpt {
				if _, err := experiments.TableV(cl, ev, fo.Workers); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%v ckpt=%v: %d checked", prec, ckpt, checked())
			if checked() == 0 {
				t.Fatalf("%v ckpt=%v: no grid point reached the planned lowering", prec, ckpt)
			}
		}
	}
}
