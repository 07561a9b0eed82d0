package dist

import (
	"math"

	"karma/internal/comm"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/tensor"
	"karma/internal/topo"
	"karma/internal/unit"
)

// HybridOptions selects variants of the in-core MP hybrid baselines.
type HybridOptions struct {
	// Phased uses the per-block grouped gradient exchange overlapped with
	// the backward pass (§III-G, "MP+DP opt-ex" in Fig. 8); false runs one
	// bulk collective after backward completes. ZeRO ignores it: its
	// reduce-scatter/all-gather exchange is phased by construction.
	Phased bool
	// Checkpoint enables activation checkpointing in the shard
	// (karma.Checkpoint): boundary activations stay resident and the rest
	// recompute during backward, trading redundant forward work for the
	// larger capacity batches real Megatron-LM and ZeRO deployments train
	// at.
	Checkpoint bool
	// Precision selects the training regime (fp32 default, or mixed
	// fp16-with-fp32-master). Under mixed precision the shard's weights,
	// gradients and activations are fp16 — halving the MP collectives,
	// the data-parallel exchange and the activation footprint that bounds
	// the capacity batch — while the optimizer holds an fp32 master copy
	// on the device: resident per GPU in the plain hybrid, partitioned
	// across the replicas under ZeRO (the sharded state that gave the
	// real Turing-NLG run its batch headroom). Compute rates are held
	// constant across regimes (see tensor.Precision).
	Precision tensor.Precision
}

// shardEngine is the routing engine for the hybrids' data-parallel
// exchange: each shard's replicas sit on distinct nodes, so every node
// injects into Devices concurrent shard collectives that contend for the
// node's egress. The per-collective share derives from the topology's
// NIC tier — aggregate rail bandwidth divided among the concurrent
// collectives (on the flat model this is exactly the seed's
// NetBW/Devices split; on ABCI's 2-NIC nodes each collective gets twice
// that) — not from dividing cl.NetBW by Node.Devices unconditionally.
func shardEngine(cl hw.Cluster) topo.Engine {
	return topo.Engine{T: cl.Topo(), Concurrent: cl.Node.Devices}
}

// nodeShareBW is the per-collective bottleneck bandwidth of the shard
// exchange route (pinned by a flat-topology regression test).
func nodeShareBW(cl hw.Cluster) unit.BytesPerSec {
	return shardEngine(cl).InterRoute().Bottleneck()
}

// hybridSetup validates the shared MP+DP argument set, profiles the
// 1/mp shard (model.TransformerShard), and builds the shard's in-core
// schedule — all-resident, or checkpointed under o.Checkpoint. Both
// evaluator backends go through it — so feasibility verdicts agree by
// construction — and both draw the shard build, profile and schedule
// from the process-wide caches (caches.go): grid points sharing
// (model, mp, batch, precision) profile and partition the shard exactly
// once, concurrent sweep workers included. A non-nil Result reports an
// infeasible configuration; it still records the checkpointing regime
// it was computed under (the tables' ckpt column reads it). With zero
// set, gradient and optimizer state additionally shard across the
// data-parallel replicas — ZeRO's defining memory property.
func hybridSetup(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, zero bool, o HybridOptions) (*model.Shard, *profiler.Profile, *karma.Schedule, *Result, error) {
	if err := validateRun(cl, gpus, perReplicaBatch, samples); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := positive("model-parallel factor", mp); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := validateTransformer(cfg); err != nil {
		return nil, nil, nil, nil, err
	}
	replicas := gpus / mp
	sh := shell{gpus: gpus, global: replicas * perReplicaBatch, samples: samples, ckpt: o.Checkpoint}
	if gpus%mp != 0 || replicas < 1 {
		return nil, nil, nil, sh.infeasible("%d GPUs do not divide into MP groups of %d", gpus, mp), nil
	}
	if total := cl.TotalDevices(); gpus > total {
		return nil, nil, nil, sh.infeasible("cluster %s has %d devices, need %d", cl.Name, total, gpus), nil
	}
	shard := cachedShard(cfg, mp)
	pk := shardProfileKey{
		mk:    modelKey{cfg: cfg, mp: mp},
		node:  cl.Node,
		batch: perReplicaBatch,
		dt:    o.Precision.DType(),
	}
	p, err := cachedProfile(pk)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Each GPU keeps its shard's weights and gradients resident (fp16
	// under mixed precision), plus the optimizer's fp32 master copy;
	// under ZeRO the gradient+optimizer shard further divides across the
	// replicas and only 1/replicas of it stays resident per GPU.
	weights := p.TotalWeightBytes
	grads := weights
	master := o.Precision.MasterBytes(weights)
	if zero {
		grads = unit.Bytes(math.Ceil(float64(weights) / float64(replicas)))
		master = unit.Bytes(math.Ceil(float64(master) / float64(replicas)))
	}
	m := budget(cl)
	actBudget := m - weights - grads - master
	// The schedule construction IS the capacity verdict (one scan, shared
	// by both backends and memoized per (profile, budget, regime)); its
	// failure is re-rendered below as the stable memory Reason carrying
	// the minimal activation footprint the regime could have reached.
	var s *karma.Schedule
	if actBudget > 0 {
		s = cachedSchedule(shardSchedKey{pk: pk, budget: actBudget, ckpt: o.Checkpoint}, p)
	}
	if s == nil {
		actNeed := p.TotalActBytes
		if o.Checkpoint {
			actNeed = cachedFootprint(pk, p)
		}
		return nil, nil, nil, sh.infeasible(
			"MP=%d shard needs %v of %v device memory; increase the MP factor or go out-of-core",
			mp, weights+grads+master+actNeed, m), nil
	}
	return shard, p, s, nil, nil
}

// arCounts maps the shard's marked collectives onto the profile's
// blocks: fwdAR[i] counts the partial-sum all-reduces block i's forward
// pass ends with (row-parallel projections, plus the vocab-parallel
// embedding gather), bwdAR[i] the matching input-gradient all-reduces of
// its backward pass (the embedding has none — token ids carry no
// gradient).
func arCounts(shard *model.Shard, p *profiler.Profile) (fwdAR, bwdAR []int) {
	// blockOf[id] is 1 + the block holding node id (0: in no block),
	// dense over the shard graph's node IDs.
	blockOf := make([]int32, shard.Graph.Len())
	for i, b := range p.Blocks {
		for _, id := range b.Seg.Nodes {
			blockOf[id] = int32(i + 1)
		}
	}
	fwdAR = make([]int, len(p.Blocks))
	bwdAR = make([]int, len(p.Blocks))
	for _, id := range shard.AllReduce {
		if i := blockOf[id]; i > 0 {
			fwdAR[i-1]++
			bwdAR[i-1]++
		}
	}
	if shard.EmbedAllReduce >= 0 {
		if i := blockOf[shard.EmbedAllReduce]; i > 0 {
			fwdAR[i-1]++
		}
	}
	return fwdAR, bwdAR
}

// mpARPayload is the boundary activation each MP collective reduces: the
// full {batch, seq, hidden} tensor of partial sums.
func mpARPayload(cfg model.TransformerConfig, p *profiler.Profile) unit.Bytes {
	return unit.Bytes(int64(p.Opts.Batch) * int64(cfg.Seq) * int64(cfg.Hidden) * int64(p.Opts.DType.Size()))
}

// hybridCost is the analytic phase decomposition of one MP+DP iteration:
// a forward phase (compute serialized with the blocking forward
// collectives, the ZeRO parameter gather overlapped), a backward phase
// (backward compute, recompute replays and the blocking gradient
// collectives, with the data-parallel exchange overlapped on the same
// network), and the optimizer update.
type hybridCost struct {
	fwdPhase, bwdPhase, update unit.Seconds
	// bd attributes the same algebra phase by phase; its components sum
	// to iter() by construction.
	bd Breakdown
}

func (c hybridCost) iter() unit.Seconds { return c.fwdPhase + c.bwdPhase + c.update }

// breakdown returns the attribution for attachment to a Result.
func (c hybridCost) breakdown() *Breakdown {
	b := c.bd
	return b.withOccupancy(c.iter())
}

// megatronCost evaluates the MP-sharded transformer iteration from the
// shard profile and its in-core schedule — the closed form mirroring the
// per-layer simulated plan of the planned backend (dense sweeps use
// this; property tests bound the divergence). zero additionally shards
// gradient and optimizer state across the replicas (ZeRO-style), which
// divides the update work, splits the exchange into a backward
// reduce-scatter and a forward-overlapped parameter all-gather, and is
// always phased.
func megatronCost(cfg model.TransformerConfig, shard *model.Shard, p *profiler.Profile, s *karma.Schedule, cl hw.Cluster, mp, replicas int, zero bool, o HybridOptions) hybridCost {
	fwd, bwd, updateFLOPs := p.Totals()
	rec := s.RecomputedTime()
	gpus := mp * replicas
	backend := comm.Pick(gpus)

	// Blocking MP collectives: every marked boundary all-reduces in
	// forward and backward, and the interior boundaries of multi-block
	// checkpoint runs reduce again during their replay.
	perAR := comm.HierarchicalAllReduce(mpARPayload(cfg, p), cl, mp, backend)
	fwdAR, bwdAR := arCounts(shard, p)
	var fwdART, bwdART, replayART unit.Seconds
	for i := range p.Blocks {
		fwdART += unit.Seconds(float64(fwdAR[i]) * float64(perAR))
		bwdART += unit.Seconds(float64(bwdAR[i]) * float64(perAR))
		if s.Blocks[i].Policy == karma.Recompute && s.RunContinues(i) {
			replayART += unit.Seconds(float64(fwdAR[i]) * float64(perAR))
		}
	}

	// Data-parallel exchange of the shard's gradients across replicas,
	// routed over the topology's contended node egress (one participant
	// per node per collective, Devices collectives per node).
	exT := comm.RingAllReduceOver(shardEngine(cl), p.TotalWeightBytes, replicas, backend)

	updWork := float64(updateFLOPs)
	if zero {
		// Each replica updates only its optimizer-state partition.
		updWork /= float64(replicas)
	}
	c := hybridCost{update: unit.ComputeTime(unit.FLOPs(updWork), cl.Node.Device.SustainedFLOPS())}
	c.bd.Update = c.update
	// Informational per-stream busy: device math on the compute stream,
	// the MP collectives on NVLink when the group fits inside a node
	// (matching injectMPCollectives' kind choice), and the replica
	// exchange on the inter-node network.
	c.bd.Busy.Compute = fwd + bwd + rec + c.update
	if mpT := fwdART + bwdART + replayART; mp <= cl.Node.Devices {
		c.bd.Busy.NVLink = mpT
	} else {
		c.bd.Busy.Network = mpT
	}
	c.bd.Busy.Network += exT

	// The backward critical chain: each input-gradient collective
	// launches after its block's dgrad half and overlaps the wgrad half
	// (Megatron-LM's standard overlap), while interior checkpoint-run
	// replays re-reduce their boundaries serially.
	bwdChain := bwd/2 + max(bwd/2, bwdART) + rec + replayART
	// Collective exposure inside the chain: the part of the dgrad-side
	// all-reduces the wgrad half could not hide.
	chainColl := max(bwd/2, bwdART) - bwd/2
	// attrBwd attributes a backward phase of max(bwdChain, alt) where
	// alt = bwdART + replayART + exW is the exchange-side chain and exW
	// its serialized exchange span.
	attrBwd := func(alt, exW unit.Seconds) {
		c.bd.Compute += bwd
		c.bd.Recompute += rec
		c.bd.Collective += replayART
		if bwdChain >= alt {
			c.bd.Collective += chainColl
			return
		}
		// Comm-bound: the span beyond compute and replay splits between
		// the MP collectives and the exchange in proportion to their
		// serialized extents, the exchange share taking the exact
		// remainder so the components still sum to the phase.
		residual := alt - bwd - rec - replayART
		var collPart unit.Seconds
		if w := bwdART + exW; w > 0 {
			collPart = unit.Seconds(float64(residual) * float64(bwdART) / float64(w))
		}
		c.bd.Collective += collPart
		c.bd.ExchangeStall += residual - collPart
	}
	switch {
	case zero:
		// Reduce-scatter overlaps backward; the parameter all-gather of
		// the next iteration's weights overlaps forward (steady state).
		half := exT / 2
		c.fwdPhase = fwdART + max(fwd, half)
		c.bwdPhase = max(bwdChain, bwdART+replayART+half)
		c.bd.Collective += fwdART
		c.bd.Compute += fwd
		if half > fwd {
			c.bd.ExchangeStall += half - fwd
		}
		attrBwd(bwdART+replayART+half, half)
	case o.Phased:
		// Per-block grouping drains the exchange behind the backward
		// collectives on the same network; only the excess stalls.
		c.fwdPhase = fwd + fwdART
		c.bwdPhase = max(bwdChain, bwdART+replayART+exT)
		c.bd.Compute += fwd
		c.bd.Collective += fwdART
		attrBwd(bwdART+replayART+exT, exT)
	default:
		// One bulk collective after backward completes.
		c.fwdPhase = fwd + fwdART
		c.bwdPhase = bwdChain + exT
		c.bd.Compute += fwd
		c.bd.Collective += fwdART
		attrBwd(0, 0) // chain-bound by construction
		c.bd.ExchangeStall += exT
	}
	return c
}

// MegatronHybrid evaluates the Megatron-LM model+data-parallel hybrid:
// the transformer shards mp ways per layer (tensor parallelism paying
// two blocking activation all-reduces per transformer layer in each
// direction), and gpus/mp replicas of the shard group train
// data-parallel. HybridOptions selects the phased vs bulk gradient
// exchange — the configuration of Fig. 8's "MP+DP" versus "MP+DP
// opt-ex" curves — and activation checkpointing in the shard.
func MegatronHybrid(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return evalHybrid(nil, cfg, cl, mp, gpus, perReplicaBatch, samples, false, o)
}

// ZeRO evaluates the sharded hybrid Turing-NLG shipped with: Megatron
// tensor parallelism of degree mp combined with ZeRO-style partitioning
// of gradients and optimizer state across the gpus/mp data-parallel
// replicas. The exchange becomes a backward reduce-scatter plus a
// forward-overlapped parameter all-gather, and each replica updates only
// its optimizer partition — the "ZeRO" reference curve of Fig. 8's right
// panel. o.Phased is ignored (the exchange is phased by construction);
// o.Checkpoint enables the activation checkpointing real ZeRO
// deployments run with.
func ZeRO(cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, o HybridOptions) (*Result, error) {
	return evalHybrid(nil, cfg, cl, mp, gpus, perReplicaBatch, samples, true, o)
}

// evalHybrid is MP+DP (or, with zero, ZeRO) on either backend (pe ==
// nil: analytic): the shared precheck, then megatronCost's phase
// algebra or the simulated shard iteration (see planned_hybrid.go).
func evalHybrid(pe *Planned, cfg model.TransformerConfig, cl hw.Cluster, mp, gpus, perReplicaBatch, samples int, zero bool, o HybridOptions) (*Result, error) {
	if zero {
		// ZeRO's exchange is phased by construction. megatronCost tests
		// zero first and hybridSetup ignores Phased, so only the planned
		// lowering reads this.
		o.Phased = true
	}
	shard, p, s, bad, err := hybridSetup(cfg, cl, mp, gpus, perReplicaBatch, samples, zero, o)
	if err != nil || bad != nil {
		return pe.stamp(bad), err
	}
	replicas := gpus / mp
	sh := shell{gpus: gpus, global: replicas * perReplicaBatch, samples: samples, ckpt: o.Checkpoint}
	return pe.finish(sh, false, func() (unit.Seconds, *Breakdown) {
		c := megatronCost(cfg, shard, p, s, cl, mp, replicas, zero, o)
		return c.iter(), c.breakdown()
	}, func() (unit.Seconds, *Breakdown, *PlanExport, error) {
		return pe.simulate(s.Budget, func(sc *planScratch) (lowered, error) {
			return pe.lowerHybrid(sc, cfg, shard, p, s, cl, mp, replicas, zero, o)
		})
	}), nil
}
