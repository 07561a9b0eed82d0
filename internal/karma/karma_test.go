package karma

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/unit"
)

func profileFor(t testing.TB, name string, batch int) *profiler.Profile {
	t.Helper()
	g, err := model.Build(name)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	p, err := profiler.New(g, hw.ABCINode(), profiler.Options{Batch: batch})
	if err != nil {
		t.Fatalf("profiler.New: %v", err)
	}
	return p
}

func TestPolicyString(t *testing.T) {
	if Keep.String() != "keep" || Swap.String() != "swap" || Recompute.String() != "recompute" {
		t.Error("policy names wrong")
	}
}

func TestPlanInCoreBatchHasNoSwaps(t *testing.T) {
	// A batch that fits entirely must plan as all-resident: no swapped
	// bytes, no recompute, occupancy 1.
	p := profileFor(t, "resnet50", 32)
	if !p.FitsInCore() {
		t.Fatal("batch 32 should fit in-core")
	}
	s, err := Plan(p, Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if s.SwappedBytes() != 0 {
		t.Errorf("in-core plan swaps %v", s.SwappedBytes())
	}
	if s.RecomputedTime() != 0 {
		t.Errorf("in-core plan recomputes %v", s.RecomputedTime())
	}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if rep.Occupancy < 0.999 {
		t.Errorf("in-core occupancy = %v, want ~1", rep.Occupancy)
	}
}

func TestPlanOutOfCoreResNet50(t *testing.T) {
	// Fig. 5's second ResNet-50 point: batch 256 exceeds 16 GiB.
	p := profileFor(t, "resnet50", 256)
	if p.FitsInCore() {
		t.Fatal("batch 256 should not fit in-core")
	}
	s, err := Plan(p, Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if s.SwappedBytes() == 0 && s.RecomputedTime() == 0 {
		t.Error("out-of-core plan must swap or recompute something")
	}
	if s.Resident == 0 {
		t.Error("capacity-based strategy should keep a resident tail")
	}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if rep.IterTime <= 0 || rep.Throughput <= 0 {
		t.Fatalf("bad report %+v", rep)
	}
	if rep.PeakMem > s.Budget {
		t.Errorf("peak %v exceeds budget %v", rep.PeakMem, s.Budget)
	}
}

func TestRecomputeNeverSlower(t *testing.T) {
	// KARMA w/recompute must never lose to plain KARMA — Opt-2 only
	// accepts improving flips.
	for _, batch := range []int{256, 384, 512} {
		p := profileFor(t, "resnet50", batch)
		noRe, err := Plan(p, Options{DisableRecompute: true})
		if err != nil {
			t.Fatalf("Plan(no recompute): %v", err)
		}
		withRe, err := Plan(p, Options{})
		if err != nil {
			t.Fatalf("Plan(recompute): %v", err)
		}
		a, err := Simulate(noRe)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(withRe)
		if err != nil {
			t.Fatal(err)
		}
		if b.IterTime > a.IterTime {
			t.Errorf("batch %d: recompute slower (%v) than plain (%v)", batch, b.IterTime, a.IterTime)
		}
	}
}

func TestOutOfCoreSlowerThanInCore(t *testing.T) {
	// Throughput (samples/s) at an out-of-core batch must not exceed the
	// in-core rate — out-of-core adds overhead, never speed (Fig. 5).
	inCore := profileFor(t, "resnet50", 128)
	sIn, err := Plan(inCore, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rIn, err := Simulate(sIn)
	if err != nil {
		t.Fatal(err)
	}
	ooc := profileFor(t, "resnet50", 512)
	sOoc, err := Plan(ooc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rOoc, err := Simulate(sOoc)
	if err != nil {
		t.Fatal(err)
	}
	if rOoc.Throughput > rIn.Throughput {
		t.Errorf("OOC throughput %v exceeds in-core %v", rOoc.Throughput, rIn.Throughput)
	}
	// But it must remain within an order of magnitude (graceful
	// degradation, not collapse: the paper reports 9-37%).
	if rOoc.Throughput < rIn.Throughput/10 {
		t.Errorf("OOC collapsed: %v vs %v", rOoc.Throughput, rIn.Throughput)
	}
}

func TestBwdTracePopulated(t *testing.T) {
	p := profileFor(t, "resnet200", 12)
	s, err := Plan(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BwdTrace) < s.NumBlocks() {
		t.Errorf("trace has %d entries for %d blocks", len(rep.BwdTrace), s.NumBlocks())
	}
	for _, tr := range rep.BwdTrace {
		if tr.End < tr.Start || tr.Stall < 0 {
			t.Errorf("bad trace entry %+v", tr)
		}
	}
}

func TestSolverACOFeasible(t *testing.T) {
	p := profileFor(t, "resnet50", 256)
	s, err := Plan(p, Options{Solver: SolverACO, Seed: 7, MaxBlocks: 12})
	if err != nil {
		t.Fatalf("Plan(ACO): %v", err)
	}
	if _, err := Simulate(s); err != nil {
		t.Fatalf("Simulate(ACO plan): %v", err)
	}
}

func TestPlanErrorsWhenWeightsDontFit(t *testing.T) {
	// megatron-2.5B weights x2 exceed a 16 GiB device: the single-device
	// planner must refuse and point at the distributed path.
	g, err := model.Build("megatron-2.5B")
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.New(g, hw.ABCINode(), profiler.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(p, Options{}); err == nil {
		t.Error("planner should reject models whose weights exceed device memory")
	}
}

func TestScheduleAccessors(t *testing.T) {
	p := profileFor(t, "resnet50", 256)
	s, err := Plan(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != len(s.Blocks) {
		t.Error("NumBlocks mismatch")
	}
	var swapped unit.Bytes
	for _, b := range s.Blocks {
		if b.Policy == Swap {
			swapped += b.Payload()
		}
	}
	if s.SwappedBytes() != swapped {
		t.Error("SwappedBytes mismatch")
	}
}

func TestBuildPlanPolicyValidation(t *testing.T) {
	p := profileFor(t, "smallcnn", 4)
	s, err := Plan(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Resident < len(s.Blocks) {
		t.Skip("need an all-resident schedule for this test")
	}
	// Corrupt: mark a resident block as swap.
	s.Blocks[len(s.Blocks)-1].Policy = Swap
	if _, err := BuildPlan(s); err == nil {
		t.Error("BuildPlan should reject resident blocks with swap policy")
	}
}

func TestCapacityBasedKeepsTailResident(t *testing.T) {
	// The defining feature (§III-E2, Fig. 2b): the blocks computed last in
	// the forward pass stay resident, so the backward phase starts without
	// waiting for any swap-in.
	p := profileFor(t, "vgg16", 96)
	s, err := Plan(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BwdTrace) == 0 {
		t.Fatal("no backward trace")
	}
	first := rep.BwdTrace[0]
	if first.Block != s.NumBlocks()-1 {
		t.Fatalf("first backward is block %d, want last block", first.Block)
	}
	if first.Stall > 0 {
		t.Errorf("backward of the resident last block stalled %v", first.Stall)
	}
}

func TestCheckpointedRecomputePlan(t *testing.T) {
	// Deep out-of-core planning should exercise the checkpointed-run
	// candidate on at least one grid point; verify its structural
	// invariants when it appears.
	for _, batch := range []int{384, 512, 768} {
		p := profileFor(t, "resnet50", batch)
		s, err := Plan(p, Options{})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, b := range s.Blocks {
			if !b.Ckpt {
				continue
			}
			// A checkpoint only makes sense when the NEXT block replays
			// from it.
			if i+1 >= len(s.Blocks) || s.Blocks[i+1].Policy != Recompute {
				t.Errorf("batch %d block %d: checkpoint without a following recompute", batch, i)
			}
			// The boundary must be physically stored (anchor rule).
			if b.Cost.ActBytes < b.Cost.OutBytes {
				t.Errorf("batch %d block %d: checkpoint on an aliasing block", batch, i)
			}
		}
		// And the lowered plan still balances.
		pl, err := BuildPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		if d := pl.MemoryDelta(); d != 0 {
			t.Errorf("batch %d: leak %v", batch, d)
		}
	}
}

func TestBuildPlanCkptRunSplit(t *testing.T) {
	// Construct a schedule with two recompute runs split by a checkpoint
	// and verify the emitted plan contains both replay runs in order.
	p := profileFor(t, "smallcnn", 512)
	budget, err := BudgetFor(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) < 5 {
		t.Skip("need 5 blocks")
	}
	s := &Schedule{
		Profile:  p,
		Blocks:   make([]Block, len(p.Blocks)),
		Resident: 4,
		Budget:   budget,
	}
	for i := range s.Blocks {
		s.Blocks[i] = Block{Range: [2]int{i, i + 1}, Cost: p.Blocks[i], Policy: Keep}
	}
	for i := 0; i < 4; i++ {
		s.Blocks[i].Policy = Recompute
	}
	// Find an anchorable block among 0..2 for the split.
	anchored := false
	for i := 1; i < 3; i++ {
		if s.Blocks[i].Cost.ActBytes >= s.Blocks[i].Cost.OutBytes && s.Blocks[i].Cost.OutBytes > 0 {
			s.Blocks[i].Ckpt = true
			anchored = true
			break
		}
	}
	if !anchored {
		t.Skip("no anchorable block in this model")
	}
	pl, err := BuildPlan(s)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if d := pl.MemoryDelta(); d != 0 {
		t.Errorf("ckpt-split plan leaks %v", d)
	}
	// Both replays appear: count Recompute ops (one per recomputed block).
	re := 0
	for _, st := range pl.Stages {
		for _, op := range st.Ops {
			if op.Kind.String() == "R" {
				re++
			}
		}
	}
	if re != 4 {
		t.Errorf("recompute ops = %d, want 4", re)
	}
	if _, _, err := pl.Simulate(s.Budget); err != nil {
		t.Errorf("ckpt-split plan does not simulate: %v", err)
	}
}
