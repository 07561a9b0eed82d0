// Package dist models KARMA at cluster scale (paper §III-G, Fig. 3): the
// five-stage out-of-core data-parallel pipeline (swap-in, compute,
// swap-out, phased gradient exchange, host-side weight update), the
// Megatron-LM model+data-parallel hybrid it is compared against (Fig. 8,
// Table IV), ZeRO-style sharded data parallelism, GPipe-style pipeline
// (inter-layer) parallelism, and conventional in-core data parallelism
// (Table V). Every family evaluates at fp32 or mixed precision
// (tensor.Precision): fp16 tensors halve the swap, collective and
// activation bytes while the optimizer's fp32 master state stays
// resident, sharded, or host-side depending on the family.
//
// Two Evaluator backends cost each configuration:
//
//   - Analytic (the package-level functions): closed-form models layered
//     on the profiled per-block quantities of internal/profiler and the
//     collective costs of internal/comm. The out-of-core KARMA replica
//     is approximated by a heavy/cheap activation split with a streamed
//     fraction; the MP hybrids by a forward/backward phase algebra over
//     the 1/mp shard profile (megatronCost). Use it for dense sweeps —
//     a full Fig. 8 grid costs milliseconds.
//
//   - Planned: everything runs through the planner/sim pipeline. A KARMA
//     replica runs the real internal/karma two-tier partition search
//     (Opt-1/Opt-2, in the §III-G weight-streaming regime when weights
//     cannot stay resident); an MP hybrid shard (MegatronHybrid, ZeRO)
//     profiles model.TransformerShard per layer, takes its in-core or
//     activation-checkpointed schedule (karma.InCore / karma.Checkpoint)
//     and gets the blocking Megatron collectives, the phased or bulk
//     data-parallel exchange, and ZeRO's reduce-scatter/all-gather split
//     injected as collective-stream ops. Either way internal/sim plays
//     the schedule out, so swap, recompute, checkpoint-replay and
//     collective stalls interact per block exactly as in Fig. 3. Use it
//     when fidelity matters (calibration, headline ratios); profiles and
//     shard builds are cached so sweeps stay tractable.
//
// Both backends run one evaluation path per family (evalKARMA,
// DataParallel, evalHybrid, evalPipeline), with a nil *Planned meaning
// analytic. Each path is the shared precheck (replicaSetup for KARMA-DP
// and DP, hybridSetup for the MP hybrids, pipelineSetup for the
// pipeline), the family's closed form, and Planned.finish, which on the
// planned backend replaces the closed form by the simulated iteration
// (Planned.simulate) — or keeps it, tagged "analytic", when the
// simulation fails. So the backends diverge only in timing fidelity,
// never on "does it fit": verdicts and Reason strings are one
// computation, the capacity-batch searches (capacity.go) walk that
// precheck instead of costing every batch, and fully in-core KARMA
// replicas return the closed form on both. Analytic-vs-Planned
// iteration times are held to a bounded band by the property tests in
// property_test.go. The models return a Result rather than an error for
// capacity problems (undersized clusters, models that cannot be sharded
// small enough), so experiment sweeps can render infeasible cells;
// errors are reserved for invalid arguments.
//
// Request-driven callers (karma-serve) start from Config: one
// configuration as a value, whose Canonical method holds the family
// table, the defaults (DefaultSamples, DefaultMicro) and the argument
// checks, and whose Eval method is the one dispatch from a family to its
// Evaluator method. The family setups call the same checks, so a
// positional call and a Config reject an argument alike; only the
// global batch's overflow is left to evaluation. The experiment grids
// call the positional Evaluator methods directly.
package dist

import (
	"fmt"
	"math"

	"karma/internal/comm"
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/profiler"
	"karma/internal/tensor"
	"karma/internal/unit"
)

// headroomFrac is the fraction of usable device memory reserved for
// transient working tensors (mirrors the planner's Options.Headroom).
const headroomFrac = 0.03

// Result is the outcome of evaluating one distributed configuration.
// The JSON field names are the karma-serve wire format; experiment
// panels embed Results, so the tags keep every panel marshalable as-is.
type Result struct {
	// Feasible reports whether the configuration fits the cluster; when
	// false, Reason explains why and the timing fields are zero.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`

	// EpochTime is the time to process one epoch of the sample set.
	EpochTime unit.Seconds `json:"epoch_time_s"`
	// IterTime is the time of one global mini-batch iteration.
	IterTime unit.Seconds `json:"iter_time_s"`
	// IterPerSec is the iteration rate (Table IV's perf column).
	IterPerSec float64 `json:"iter_per_sec"`
	// CostPerf is the cost/performance proxy of Table V: GPU-seconds
	// spent per training sample ($/P up to a constant price factor).
	CostPerf float64 `json:"cost_perf"`
	// GPUs is the device count the configuration uses.
	GPUs int `json:"gpus"`
	// GlobalBatch is the samples processed per iteration across the run.
	GlobalBatch int `json:"global_batch"`
	// Backend names the cost model that produced the numbers. Results are
	// tagged "analytic" at construction (the package-level functions ARE
	// the analytic backend); the planner-backed evaluator overwrites the
	// tag with "planned" on the paths it actually simulates. From
	// Planned, an "analytic" tag therefore marks either a fallback to the
	// closed form after a failed simulation, or conventional data
	// parallelism, which both backends cost in closed form by design
	// (see DataParallel).
	Backend string `json:"backend"`
	// Ckpt records whether the configuration ran with activation
	// checkpointing (the in-core hybrids under HybridOptions.Checkpoint).
	Ckpt bool `json:"ckpt"`
	// Breakdown attributes IterTime across the pipeline's phases (nil for
	// infeasible results). Its critical-path components sum to IterTime in
	// both backends — every verdict is self-explaining.
	Breakdown *Breakdown `json:"breakdown,omitempty"`
}

// KARMAOptions selects KARMA-DP variants.
type KARMAOptions struct {
	// UpdateOnDevice forces the weight update of swapped blocks back onto
	// the GPU (ablation A4). The default updates swapped blocks on the
	// host during swap-out (Fig. 3 stage 5), which avoids the momentum
	// round-trip over the link.
	UpdateOnDevice bool
	// ZeROShard composes KARMA with ZeRO-style sharding: gradient and
	// optimizer state partition across the replicas, shrinking the
	// out-of-core footprint each GPU must stream (Fig. 8 right panel).
	ZeROShard bool
	// Precision selects the training regime (fp32 default, or mixed
	// fp16-with-fp32-master). Mixed precision halves the weight,
	// gradient and activation bytes the replica streams and exchanges;
	// the fp32 master copy lives with the host-side update (far memory)
	// in every KARMA regime, so it never costs device capacity. Compute
	// rates are deliberately held constant across regimes (see
	// tensor.Precision).
	Precision tensor.Precision
}

// shell is what a Result carries besides its timing: the
// configuration's identity, the epoch its rates derive from, and the
// checkpointing regime it ran under.
type shell struct {
	gpus, global, samples int
	ckpt                  bool
}

// infeasible returns a non-viable Result carrying the configuration's
// identity so tables can still render the row. Like result it tags the
// result "analytic" at construction; the planned backend re-tags.
func (sh shell) infeasible(format string, args ...any) *Result {
	return &Result{
		Feasible:    false,
		Reason:      fmt.Sprintf(format, args...),
		GPUs:        sh.gpus,
		GlobalBatch: sh.global,
		Backend:     "analytic",
		Ckpt:        sh.ckpt,
	}
}

// result derives the rate and epoch quantities from one iteration time
// and attaches its breakdown, tagged "analytic" (see Planned.finish).
func (sh shell) result(iter unit.Seconds, bd *Breakdown) *Result {
	iters := (sh.samples-1)/sh.global + 1
	return &Result{
		Feasible:    true,
		EpochTime:   unit.Seconds(float64(iters) * float64(iter)),
		IterTime:    iter,
		IterPerSec:  1 / float64(iter),
		CostPerf:    float64(sh.gpus) * float64(iter) / float64(sh.global),
		GPUs:        sh.gpus,
		GlobalBatch: sh.global,
		Backend:     "analytic",
		Ckpt:        sh.ckpt,
		Breakdown:   bd,
	}
}

// budget returns the per-device memory available after headroom.
func budget(cl hw.Cluster) unit.Bytes {
	usable := cl.Node.Device.UsableMem()
	return usable - unit.Bytes(float64(usable)*headroomFrac)
}

// replicaCost is the per-replica iteration cost of KARMA's out-of-core
// pipeline, before the gradient exchange is added.
type replicaCost struct {
	// fwd and bwd are the device compute phases; recompute is the Opt-2
	// style redundant forward work for dropped cheap activations.
	fwd, bwd, recompute unit.Seconds
	// swapStall is link time not hidden under compute.
	swapStall unit.Seconds
	// serialUpdate is weight-update work on the iteration's critical path.
	serialUpdate unit.Seconds
	// updateStall is host-update time not hidden under the next forward.
	updateStall unit.Seconds
	// stream is the fraction of the working set crossing the link each
	// iteration (0 when the replica runs in-core).
	stream float64
	// h2d, d2h and hostUpdate are informational busy times (Breakdown's
	// per-stream view); they do not enter iter().
	h2d, d2h, hostUpdate unit.Seconds
	// inCore marks a replica whose weights, gradients and activations
	// all fit: the closed form is exact, on both backends.
	inCore bool
}

func (rc replicaCost) iter() unit.Seconds {
	return rc.fwd + rc.bwd + rc.recompute + rc.swapStall + rc.serialUpdate + rc.updateStall
}

// breakdown attributes the replica's critical path plus the exchange
// exposure; components sum to iter (= rc.iter() + exStall) exactly.
func (rc replicaCost) breakdown(exTotal, exStall, iter unit.Seconds) *Breakdown {
	b := &Breakdown{
		Compute:       rc.fwd + rc.bwd,
		Recompute:     rc.recompute,
		SwapStall:     rc.swapStall,
		ExchangeStall: exStall,
		Update:        rc.serialUpdate + rc.updateStall,
		Busy: StreamBusy{
			Compute: rc.fwd + rc.bwd + rc.recompute + rc.serialUpdate,
			H2D:     rc.h2d,
			D2H:     rc.d2h,
			Host:    rc.hostUpdate,
			Network: exTotal,
		},
	}
	return b.withOccupancy(iter)
}

// karmaReplica evaluates one out-of-core replica at the profile's batch.
// gpus is the data-parallel width (it sizes ZeRO's shards). A non-empty
// reason means the configuration cannot run, and explains why.
func karmaReplica(p *profiler.Profile, cl hw.Cluster, gpus int, o KARMAOptions) (replicaCost, string) {
	m := budget(cl)
	weights := p.TotalWeightBytes
	grads := weights
	if o.ZeROShard {
		// Gradient and optimizer state shard across the replicas; each
		// GPU holds only its 1/gpus partition between exchanges.
		grads = unit.Bytes(math.Ceil(float64(weights) / float64(gpus)))
	}

	var fwd, bwd, cheapFwd unit.Seconds
	var heavyActs, maxBlock unit.Bytes
	var updateFLOPs unit.FLOPs
	for _, b := range p.Blocks {
		fwd += b.FwdTime
		bwd += b.BwdTime
		cheapFwd += b.CheapFwdTime
		heavyActs += b.HeavyActBytes
		updateFLOPs += b.UpdateFLOPs
		// A block's working set: two weight copies, activations, and
		// pinned inputs.
		maxBlock = max(maxBlock, 2*b.WeightBytes+b.ActBytes+b.PinnedInBytes)
	}
	if maxBlock > m {
		// No streaming policy can run a block that does not fit.
		return replicaCost{}, fmt.Sprintf("largest block needs %v of %v device memory", maxBlock, m)
	}

	rc := replicaCost{fwd: fwd, bwd: bwd}
	devRate := cl.Node.Device.SustainedFLOPS()
	updDev := unit.ComputeTime(updateFLOPs, devRate)
	if o.ZeROShard {
		// Every replica updates only its 1/gpus partition (the all-gather
		// of fresh parameters is folded into the exchange).
		updDev = unit.Seconds(float64(updDev) / float64(gpus))
	}

	if weights+grads+p.TotalActBytes <= m {
		// Fully in-core: KARMA degenerates to conventional data
		// parallelism with a device-side update.
		rc.serialUpdate = updDev
		rc.inCore = true
		return rc, ""
	}

	// Drop cheap activations (normalization, pooling, element-wise) and
	// recompute them in backward — the Opt-2 interleave at block scale.
	rc.recompute = cheapFwd
	footprint := weights + grads + heavyActs
	if footprint <= m {
		rc.serialUpdate = updDev
		return rc, ""
	}

	// Block streaming: the nonresident share of weights and heavy
	// activations crosses the link every iteration. Weights enter twice
	// (forward and backward sweeps), activations leave after forward and
	// return for backward, gradients drain to far memory.
	f := 1 - float64(m)/float64(footprint)
	rc.stream = f
	in := f * float64(2*weights+heavyActs)
	out := f * float64(heavyActs+grads)

	hostFrac := f // share of the update handled off-device
	if o.ZeROShard {
		hostFrac /= float64(gpus)
	}
	if o.UpdateOnDevice {
		// Forcing streamed blocks to update on the GPU round-trips their
		// momentum buffers and serializes the update kernel (A4). The
		// buffers are fp32 in both regimes, so under mixed precision they
		// cost twice the fp16 weight bytes. ZeRO partitions the momentum
		// like the rest of the optimizer state.
		momentum := f * float64(o.Precision.OptimBytes(weights))
		if o.ZeROShard {
			momentum /= float64(gpus)
		}
		in += momentum
		out += momentum
		rc.serialUpdate = updDev
		hostFrac = 0
	} else {
		// Streamed blocks update on the host during swap-out; resident
		// blocks update on the device.
		rc.serialUpdate = unit.Seconds((1 - f) * float64(updDev))
	}
	hostFLOPs := unit.FLOPs(hostFrac * float64(updateFLOPs))
	hostT := unit.ComputeTime(hostFLOPs, cl.Node.Host.SustainedFLOPS())
	rc.hostUpdate = hostT
	if hostT > fwd {
		// CPU update overlaps the next iteration's forward pass.
		rc.updateStall = hostT - fwd
	}

	swapBW := hw.SwapThroughput(cl.Node)
	lat := unit.Seconds(float64(len(p.Blocks)) * float64(cl.Node.Link.Latency))
	rc.h2d = unit.TransferTime(unit.Bytes(in), swapBW, lat)
	rc.d2h = unit.TransferTime(unit.Bytes(out), swapBW, lat)
	dir := math.Max(in, out)
	link := unit.TransferTime(unit.Bytes(dir), swapBW, lat)
	if compute := rc.fwd + rc.bwd + rc.recompute; link > compute {
		rc.swapStall = link - compute
	}
	return rc, ""
}

// gradExchangeTimes returns the per-iteration cost of the phased
// block-wise gradient exchange: a hierarchical all-reduce of the full
// gradient payload, overlapped with the backward pass that produces it.
// With ZeROShard the exchange is a reduce-scatter plus the all-gather of
// updated parameters — the same ring volume in this cost model. It
// returns both the full collective time (the network busy view) and the
// stall beyond the overlap window (the critical-path view).
func gradExchangeTimes(grads unit.Bytes, cl hw.Cluster, gpus int, window unit.Seconds) (total, stall unit.Seconds) {
	if gpus <= 1 {
		return 0, 0
	}
	b := comm.Pick(gpus)
	t := comm.HierarchicalAllReduce(grads, cl, gpus, b)
	if t <= window {
		return t, 0
	}
	return t, t - window
}

// replicaSetup is the precheck KARMA-DP and DP share: it validates the
// arguments, rejects clusters too small for gpus, and returns the
// memoized replica profile at dtype dt with the configuration's shell.
// A non-nil Result reports an infeasible configuration.
func replicaSetup(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, dt tensor.DType) (*profiler.Profile, shell, *Result, error) {
	if g == nil {
		return nil, shell{}, nil, fmt.Errorf("dist: nil graph")
	}
	if err := validateRun(cl, gpus, perReplicaBatch, samples); err != nil {
		return nil, shell{}, nil, err
	}
	sh := shell{gpus: gpus, global: gpus * perReplicaBatch, samples: samples}
	if total := cl.TotalDevices(); gpus > total {
		return nil, sh, sh.infeasible("cluster %s has %d devices, need %d", cl.Name, total, gpus), nil
	}
	p, err := replicaProfile(g, cl.Node, perReplicaBatch, dt)
	return p, sh, nil, err
}

// KARMADataParallel evaluates KARMA's pure data-parallel training of g:
// every GPU holds the whole model out-of-core at the given per-replica
// batch, blocks swap with their weights, gradients exchange per block in
// phases, and the weight update runs host-side (Fig. 3). The global
// mini-batch is gpus x perReplicaBatch.
func KARMADataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	return evalKARMA(nil, g, cl, gpus, perReplicaBatch, samples, o)
}

// evalKARMA is KARMA-DP on either backend (pe == nil: analytic): the
// shared precheck, the closed-form replica (karmaReplica) plus the
// overlapped exchange, or the planned replica's partition search and
// simulated iteration (replicaIter).
func evalKARMA(pe *Planned, g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int, o KARMAOptions) (*Result, error) {
	p, sh, bad, err := replicaSetup(g, cl, gpus, perReplicaBatch, samples, o.Precision.DType())
	if err != nil || bad != nil {
		return pe.stamp(bad), err
	}
	rc, reason := karmaReplica(p, cl, gpus, o)
	if reason != "" {
		return pe.stamp(sh.infeasible("%s", reason)), nil
	}
	return pe.finish(sh, rc.inCore, func() (unit.Seconds, *Breakdown) {
		exTotal, exStall := gradExchangeTimes(p.TotalWeightBytes, cl, gpus, rc.bwd)
		iter := rc.iter() + exStall
		return iter, rc.breakdown(exTotal, exStall, iter)
	}, func() (unit.Seconds, *Breakdown, *PlanExport, error) {
		return pe.replicaIter(p, cl, gpus, o)
	}), nil
}

// DataParallel evaluates conventional in-core data parallelism: gpus
// replicas at the given batch, gradients all-reduced hierarchically and
// overlapped with backward, weights updated on the device. Models whose
// working set exceeds device memory are infeasible — the regime KARMA
// (and the MP hybrid) exist for. Both backends return this closed form:
// a schedule with no overlap structure has nothing to simulate.
func DataParallel(g *graph.Graph, cl hw.Cluster, gpus, perReplicaBatch, samples int) (*Result, error) {
	p, sh, bad, err := replicaSetup(g, cl, gpus, perReplicaBatch, samples, tensor.FP32)
	if err != nil || bad != nil {
		return bad, err
	}
	if need, have := p.InCoreBytes(), budget(cl); need > have {
		return sh.infeasible(
			"batch %d needs %v of %v device memory; use KARMADataParallel", perReplicaBatch, need, have), nil
	}
	fwd, bwd, updateFLOPs := p.Totals()
	upd := unit.ComputeTime(updateFLOPs, cl.Node.Device.SustainedFLOPS())
	exTotal, exStall := gradExchangeTimes(p.TotalWeightBytes, cl, gpus, bwd)
	iter := fwd + bwd + upd + exStall
	return sh.result(iter, (&Breakdown{
		Compute:       fwd + bwd,
		ExchangeStall: exStall,
		Update:        upd,
		Busy:          StreamBusy{Compute: fwd + bwd + upd, Network: exTotal},
	}).withOccupancy(iter)), nil
}
