// Megatron-LM beyond memory capacity: data-parallel KARMA versus the
// model+data-parallel hybrid (paper §III-G, Fig. 8, Table IV).
//
// The 2.5B-parameter Megatron-LM configuration cannot fit one GPU; the
// original implementation splits it 4 ways (model parallelism) and
// replicates the shards. KARMA instead trains it in PURE data
// parallelism: every GPU holds the whole model out-of-core, blocks swap
// with their weights, gradients exchange per block in phases, and the
// weight update runs on the host (the 5-stage pipeline of Fig. 3).
//
//	go run ./examples/megatron
package main

import (
	"fmt"
	"log"

	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/unit"
)

func main() {
	cl := hw.ABCI()
	cfg := model.MegatronConfigs()[2] // 2.5B parameters, MP factor 4
	g := model.Transformer(cfg)
	const samples = dist.DefaultSamples // OpenWebText (Table III)
	const perReplicaBatch = 4

	fmt.Printf("%s: %.1fB parameters (%v fp32 weights vs %v per GPU)\n",
		cfg.Name, float64(cfg.Params())/1e9,
		unit.Bytes(cfg.Params()*4),
		cl.Node.Device.UsableMem())

	fmt.Printf("\n%-6s  %-22s  %-22s  %-22s\n", "gpus", "MP+DP (h/epoch)", "MP+DP opt-ex (h/epoch)", "KARMA DP (h/epoch)")
	for _, gpus := range []int{128, 512, 2048} {
		// The hybrid shards train under activation checkpointing, the
		// regime Megatron-LM needs to fit batch 4 on a V100 (§III-G).
		hybrid, err := dist.MegatronHybrid(cfg, cl, 4, gpus, perReplicaBatch, samples, dist.HybridOptions{Checkpoint: true})
		if err != nil {
			log.Fatal(err)
		}
		opt, err := dist.MegatronHybrid(cfg, cl, 4, gpus, perReplicaBatch, samples, dist.HybridOptions{Phased: true, Checkpoint: true})
		if err != nil {
			log.Fatal(err)
		}
		karma, err := dist.KARMADataParallel(g, cl, gpus, perReplicaBatch, samples, dist.KARMAOptions{})
		if err != nil {
			log.Fatal(err)
		}
		cell := func(r *dist.Result) string {
			if !r.Feasible {
				return "infeasible: " + r.Reason
			}
			return fmt.Sprintf("%.1f (batch %d)", float64(r.EpochTime)/3600, r.GlobalBatch)
		}
		fmt.Printf("%-6d  %-22s  %-22s  %-22s\n", gpus, cell(hybrid), cell(opt), cell(karma))
	}
	fmt.Println("\nKARMA's global batch is the MP factor (4x) larger at GPU parity, so it runs")
	fmt.Println("4x fewer gradient-exchange rounds per epoch — the Fig. 8 effect.")
}
