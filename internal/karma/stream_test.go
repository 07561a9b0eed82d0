package karma

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/plan"
	"karma/internal/profiler"
	"karma/internal/unit"
)

// TestActivationBudgetRegimes: the streaming budget reserves no weights,
// so it strictly dominates the resident-weight budget, and the default
// regime matches BudgetFor exactly.
func TestActivationBudgetRegimes(t *testing.T) {
	p := profileFor(t, "resnet50", 256)
	plain, err := ActivationBudget(p, Options{Headroom: 0.05})
	if err != nil {
		t.Fatalf("plain budget: %v", err)
	}
	legacy, err := BudgetFor(p, 0.05)
	if err != nil {
		t.Fatalf("BudgetFor: %v", err)
	}
	if plain != legacy {
		t.Errorf("ActivationBudget (%v) != BudgetFor (%v)", plain, legacy)
	}
	stream, err := ActivationBudget(p, Options{Headroom: 0.05, StreamWeights: true})
	if err != nil {
		t.Fatalf("stream budget: %v", err)
	}
	if stream <= plain {
		t.Errorf("streaming budget %v should exceed resident-weight budget %v", stream, plain)
	}
	// ZeRO-style gradient sharding shrinks the resident reserve.
	shard, err := ActivationBudget(p, Options{Headroom: 0.05, GradScale: 1.0 / 64})
	if err != nil {
		t.Fatalf("sharded budget: %v", err)
	}
	if shard <= plain {
		t.Errorf("gradient-sharded budget %v should exceed unsharded %v", shard, plain)
	}
}

// TestStreamWeightsPlansOversizedModel: a model whose weights alone bust
// the device (megatron-2.5B: 9.3 GiB x2 on a 14.75 GiB V100) is
// unplannable in the resident-weight regime but plans and simulates
// under weight streaming, with every non-resident block carrying its
// weight and gradient payload.
func TestStreamWeightsPlansOversizedModel(t *testing.T) {
	cfg := model.MegatronConfigs()[2]
	g := model.Transformer(cfg)
	p, err := profiler.New(g, hw.ABCINode(), profiler.Options{Batch: 4})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if _, err := Plan(p, Options{}); err == nil {
		t.Fatal("resident-weight planning of 2.5B should fail on a 16 GiB device")
	}
	s, err := Plan(p, Options{StreamWeights: true})
	if err != nil {
		t.Fatalf("streamed Plan: %v", err)
	}
	for i, b := range s.Blocks {
		if b.Cost.WeightBytes > 0 && b.WBytes != b.Cost.WeightBytes {
			t.Errorf("block %d: WBytes = %v, want %v", i, b.WBytes, b.Cost.WeightBytes)
		}
		if b.GBytes != b.WBytes {
			t.Errorf("block %d: GBytes = %v, want %v at GradScale 1", i, b.GBytes, b.WBytes)
		}
	}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if rep.IterTime <= 0 {
		t.Fatal("non-positive iteration time")
	}
	if rep.PeakMem > s.Budget {
		t.Errorf("peak %v exceeds budget %v", rep.PeakMem, s.Budget)
	}
	// Weight traffic must appear in the plan: at least one swap-in per
	// non-resident block (weight prefetch), plus the backward refetches.
	var swapIns, drains int
	for _, st := range rep.Plan.Stages {
		for _, op := range st.Ops {
			switch op.Kind {
			case plan.SwapIn:
				swapIns++
			case plan.SwapOut:
				drains++
			}
		}
	}
	nonResident := s.Resident
	if swapIns < 2*nonResident {
		t.Errorf("want >= %d swap-ins (prefetch + backward refetch per streamed block), got %d",
			2*nonResident, swapIns)
	}
	if drains < nonResident {
		t.Errorf("want >= %d swap-outs (gradient drains), got %d", nonResident, drains)
	}
}

// TestStreamGradScaleShrinksTraffic: ZeRO-style gradient sharding
// (GradScale 1/replicas) shrinks the drained payload and can only help
// the simulated iteration.
func TestStreamGradScaleShrinksTraffic(t *testing.T) {
	cfg := model.MegatronConfigs()[2]
	g := model.Transformer(cfg)
	p, err := profiler.New(g, hw.ABCINode(), profiler.Options{Batch: 4})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	full, err := Plan(p, Options{StreamWeights: true})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	shard, err := Plan(p, Options{StreamWeights: true, GradScale: 1.0 / 512})
	if err != nil {
		t.Fatalf("shard: %v", err)
	}
	var fullG, shardG unit.Bytes
	for _, b := range full.Blocks {
		fullG += b.GBytes
	}
	for _, b := range shard.Blocks {
		shardG += b.GBytes
	}
	if shardG >= fullG {
		t.Errorf("sharded gradient payload %v should undercut full %v", shardG, fullG)
	}
	fr, err := Simulate(full)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Simulate(shard)
	if err != nil {
		t.Fatal(err)
	}
	if sr.IterTime > fr.IterTime {
		t.Errorf("sharded iteration %v slower than full %v", sr.IterTime, fr.IterTime)
	}
}

// TestStreamedRecomputeCheckpointPlan: BuildPlan must lower a streamed
// schedule containing a recompute run split by a checkpoint — weight
// prefetches in replay order, gradient drains, and checkpoint
// consumption — into a plan that validates, balances memory exactly, and
// simulates without deadlock.
func TestStreamedRecomputeCheckpointPlan(t *testing.T) {
	p := profileFor(t, "resnet50", 256)
	opts := Options{StreamWeights: true}
	opts.normalize()
	budget, err := ActivationBudget(p, opts)
	if err != nil {
		t.Fatalf("budget: %v", err)
	}
	n := len(p.Blocks)
	if n < 12 {
		t.Fatalf("resnet50 profile too coarse: %d segments", n)
	}
	// Six equal blocks; policies: swap, recompute+ckpt, recompute, swap,
	// keep, keep.
	var cuts []int
	for i := 1; i < 6; i++ {
		cuts = append(cuts, i*n/6)
	}
	sr := newSearcher().reset(p, budget, opts)
	cs := sr.cutSetOf(cuts)
	s := sr.scheduleFromCuts(&cs)
	if s.NumBlocks() != 6 {
		t.Fatalf("blocks = %d", s.NumBlocks())
	}
	s.Resident = 4
	policies := []Policy{Swap, Recompute, Recompute, Swap, Keep, Keep}
	for i := range s.Blocks {
		s.Blocks[i].Policy = policies[i]
	}
	s.Blocks[1].Ckpt = true // split the run {1,2} into {1} and {2}
	pl, err := BuildPlan(s)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	c, err := pl.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var alloc, free unit.Bytes
	for _, op := range c.Ops {
		alloc += op.AllocBytes
		free += op.FreeBytes
	}
	if alloc != free {
		t.Fatalf("plan leaks memory: alloc %v, free %v", alloc, free)
	}
	if _, _, err := pl.Simulate(s.Budget); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
}

// TestStreamedAllSwapPlanBalances: the r == k candidate of the Opt-2
// search — no resident suffix, every block swapped — must lower to a
// balanced, simulable plan under weight streaming too: the last block's
// activations stay on the device (no later forward to overlap a
// swap-out with), but its weights and gradient buffer still drain.
func TestStreamedAllSwapPlanBalances(t *testing.T) {
	p := profileFor(t, "resnet50", 256)
	opts := Options{StreamWeights: true}
	opts.normalize()
	budget, err := ActivationBudget(p, opts)
	if err != nil {
		t.Fatalf("budget: %v", err)
	}
	n := len(p.Blocks)
	var cuts []int
	for i := 1; i < 8; i++ {
		cuts = append(cuts, i*n/8)
	}
	sr := newSearcher().reset(p, budget, opts)
	cs := sr.cutSetOf(cuts)
	s := sr.scheduleFromCuts(&cs)
	s.Resident = s.NumBlocks()
	for i := range s.Blocks {
		s.Blocks[i].Policy = Swap
	}
	pl, err := BuildPlan(s)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	c, err := pl.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var alloc, free unit.Bytes
	for _, op := range c.Ops {
		alloc += op.AllocBytes
		free += op.FreeBytes
	}
	if alloc != free {
		t.Fatalf("all-swap streamed plan leaks memory: alloc %v, free %v", alloc, free)
	}
	if _, _, err := pl.Simulate(s.Budget); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
}

// TestStreamedPlanMemoryBalanced: the optimizer's own streamed schedules
// (not just hand-built ones) allocate exactly what they free.
func TestStreamedPlanMemoryBalanced(t *testing.T) {
	for _, tc := range []struct {
		model string
		batch int
	}{
		{"megatron-2.5B", 4},
		{"resnet50", 512},
	} {
		p := profileFor(t, tc.model, tc.batch)
		s, err := Plan(p, Options{StreamWeights: true})
		if err != nil {
			t.Fatalf("%s: Plan: %v", tc.model, err)
		}
		pl, err := BuildPlan(s)
		if err != nil {
			t.Fatalf("%s: BuildPlan: %v", tc.model, err)
		}
		c, err := pl.Compile()
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.model, err)
		}
		var alloc, free unit.Bytes
		for _, op := range c.Ops {
			alloc += op.AllocBytes
			free += op.FreeBytes
		}
		if alloc != free {
			t.Errorf("%s: streamed plan leaks memory: alloc %v, free %v", tc.model, alloc, free)
		}
	}
}
