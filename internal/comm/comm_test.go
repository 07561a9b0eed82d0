package comm

import (
	"testing"
	"testing/quick"

	"karma/internal/hw"
	"karma/internal/topo"
	"karma/internal/unit"
)

func TestBackendPick(t *testing.T) {
	if b := Pick(512); b.Name != "nccl" {
		t.Errorf("512 GPUs should pick nccl, got %s", b.Name)
	}
	// The paper's rule: NCCL unstable beyond ~1,000 GPUs -> MPI.
	if b := Pick(2048); b.Name != "mpi" {
		t.Errorf("2048 GPUs should pick mpi, got %s", b.Name)
	}
	if !MPI().Reliable(1 << 20) {
		t.Error("mpi should be reliable at any scale")
	}
}

// flat is a single-link topology engine at per-endpoint bandwidth bw.
func flat(bw unit.BytesPerSec) topo.Engine {
	return topo.Engine{T: topo.Flat(bw)}
}

func TestRingAllReduceBasics(t *testing.T) {
	b := Backend{Name: "ideal", Latency: 0, BWEfficiency: 1}
	e := flat(unit.GBps)
	// p=2: 2 steps of n/2 bytes at 1 GB/s -> n bytes total time.
	got := RingAllReduceOver(e, unit.Bytes(1e9), 2, b)
	if got != 1 {
		t.Errorf("allreduce = %v, want 1s", got)
	}
	if RingAllReduceOver(e, 100, 1, b) != 0 {
		t.Error("single participant needs no exchange")
	}
	if RingAllReduceOver(e, 0, 8, b) != 0 {
		t.Error("zero bytes needs no exchange")
	}
}

func TestRingAllReduceBandwidthOptimal(t *testing.T) {
	// Ring all-reduce total volume approaches 2n regardless of p: time
	// should be nearly flat in p (bandwidth-optimal), up to latency.
	b := Backend{Name: "ideal", Latency: 0, BWEfficiency: 1}
	t4 := RingAllReduceOver(flat(unit.GBps), unit.Bytes(1e9), 4, b)
	t64 := RingAllReduceOver(flat(unit.GBps), unit.Bytes(1e9), 64, b)
	ratio := float64(t64) / float64(t4)
	if ratio > 1.4 {
		t.Errorf("ring should be near bandwidth-optimal: t64/t4 = %v", ratio)
	}
}

func TestRingAllReduceLatencyGrowsWithP(t *testing.T) {
	b := MPI()
	small := RingAllReduceOver(flat(unit.GBps), unit.Bytes(1024), 4, b)
	big := RingAllReduceOver(flat(unit.GBps), unit.Bytes(1024), 256, b)
	if big <= small {
		t.Error("latency-bound collective should grow with participant count")
	}
}

func TestHierarchicalFasterThanFlatRing(t *testing.T) {
	c := hw.ABCI()
	b := MPI()
	n := unit.Bytes(256 << 20)
	ring := RingAllReduceOver(flat(c.NetBW), n, 512, b)
	hier := HierarchicalAllReduce(n, c, 512, b)
	if hier >= ring {
		t.Errorf("hierarchical (%v) should beat flat ring over the network (%v)", hier, ring)
	}
}

func TestHierarchicalSingleGPU(t *testing.T) {
	if got := HierarchicalAllReduce(1<<20, hw.ABCI(), 1, MPI()); got != 0 {
		t.Errorf("1 GPU exchange = %v, want 0", got)
	}
}

func TestHierarchicalIntraNodeOnly(t *testing.T) {
	// 4 GPUs on one node: only NVLink traffic, no network term.
	c := hw.ABCI()
	got := HierarchicalAllReduce(1<<30, c, 4, NCCL())
	if got <= 0 {
		t.Fatal("intra-node exchange should take time")
	}
	// Must be much cheaper than a 2-node exchange of the same payload.
	two := HierarchicalAllReduce(1<<30, c, 8, NCCL())
	if two <= got {
		t.Error("adding the network should cost more")
	}
}

func TestPhasedGroupsCoverAllBlocks(t *testing.T) {
	sizes := []unit.Bytes{1 << 20, 64 << 20, 1 << 10, 128 << 20, 1 << 12}
	groups := PhasedGroups(sizes, hw.ABCI(), 256, MPI())
	seen := map[int]bool{}
	for _, g := range groups {
		for _, b := range g.Blocks {
			if seen[b] {
				t.Errorf("block %d in two groups", b)
			}
			seen[b] = true
		}
		if g.Time < 0 {
			t.Errorf("negative group time %v", g.Time)
		}
	}
	if len(seen) != len(sizes) {
		t.Errorf("covered %d of %d blocks", len(seen), len(sizes))
	}
}

func TestPhasedGroupsMergeSmallBlocks(t *testing.T) {
	// Many tiny payloads must merge (latency amortization), not ship
	// one-by-one.
	sizes := make([]unit.Bytes, 32)
	for i := range sizes {
		sizes[i] = 1 << 10
	}
	groups := PhasedGroups(sizes, hw.ABCI(), 1024, MPI())
	if len(groups) >= len(sizes) {
		t.Errorf("%d groups for %d tiny blocks; expected merging", len(groups), len(sizes))
	}
}

func TestPhasedGroupsLargeBlocksStandAlone(t *testing.T) {
	sizes := []unit.Bytes{512 << 20, 512 << 20, 512 << 20}
	groups := PhasedGroups(sizes, hw.ABCI(), 1024, MPI())
	if len(groups) != 3 {
		t.Errorf("large blocks should not merge: %d groups", len(groups))
	}
}

func TestPhasedTotalTimeAtLeastBulkBandwidth(t *testing.T) {
	// Phasing can't reduce total volume; summed phase time is >= the bulk
	// time minus latency effects. (It wins by overlapping, not by magic.)
	sizes := []unit.Bytes{64 << 20, 64 << 20, 64 << 20, 64 << 20}
	c := hw.ABCI()
	b := MPI()
	var phased unit.Seconds
	var total unit.Bytes
	for _, g := range PhasedGroups(sizes, c, 512, b) {
		phased += g.Time
		total += g.Bytes
	}
	bulk := HierarchicalAllReduce(total, c, 512, b)
	if phased < bulk-0.01 {
		t.Errorf("phased total %v implausibly below bulk %v", phased, bulk)
	}
}

func TestPhasedGroupsEmpty(t *testing.T) {
	if got := PhasedGroups(nil, hw.ABCI(), 8, MPI()); got != nil {
		t.Errorf("empty input should return nil, got %v", got)
	}
}

// Property: all-reduce time is monotone in payload.
func TestAllReduceMonotone(t *testing.T) {
	c := hw.ABCI()
	b := MPI()
	f := func(a, d uint32) bool {
		small := unit.Bytes(a)
		large := small + unit.Bytes(d)
		return HierarchicalAllReduce(large, c, 128, b) >= HierarchicalAllReduce(small, c, 128, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReduceScatterAllGatherComposeToAllReduce(t *testing.T) {
	// reduce-scatter + all-gather equals one ring all-reduce: 2(p-1)
	// steps of n/p bytes.
	b := Backend{Name: "ideal", Latency: 0, BWEfficiency: 1}
	e := flat(unit.GBps)
	n := unit.Bytes(1 << 30)
	const p = 16
	rs := e.ReduceScatter(n, p, b.Xfer())
	ag := e.AllGather(n, p, b.Xfer())
	ar := RingAllReduceOver(e, n, p, b)
	if rs+ag != ar {
		t.Errorf("rs(%v)+ag(%v) != allreduce(%v)", rs, ag, ar)
	}
}

func TestReduceScatterEdgeCases(t *testing.T) {
	x := MPI().Xfer()
	e := flat(unit.GBps)
	if e.ReduceScatter(100, 1, x) != 0 {
		t.Error("single endpoint needs no exchange")
	}
	if e.ReduceScatter(0, 8, x) != 0 {
		t.Error("zero payload needs no exchange")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	e.ReduceScatter(-1, 4, x)
}

// --- topology-routed façade ---

// TestOverVariantsMatchFlatLegacy: on the flat topology a contended
// engine costs exactly what a single link at the pre-computed per-
// endpoint share costs (the seed model's explicit-bandwidth form) — the
// façade contract that kept every seed golden green across the topo
// refactor.
func TestOverVariantsMatchFlatLegacy(t *testing.T) {
	cl := hw.ABCI()
	b := NCCL()
	share := cl.NetBW / unit.BytesPerSec(float64(cl.Node.Devices))
	e := topo.Engine{T: cl.Topo(), Concurrent: cl.Node.Devices}
	n := unit.Bytes(200 << 20)
	if got, want := RingAllReduceOver(e, n, 128, b), RingAllReduceOver(flat(share), n, 128, b); got != want {
		t.Errorf("RingAllReduceOver = %v, legacy %v", got, want)
	}
	sizes := []unit.Bytes{1 << 20, 64 << 20, 1 << 10, 128 << 20}
	over := RingPhasedGroupsOver(e, sizes, 128, b)
	legacy := RingPhasedGroupsOver(flat(share), sizes, 128, b)
	if len(over) != len(legacy) {
		t.Fatalf("group counts differ: %d vs %d", len(over), len(legacy))
	}
	for i := range over {
		if over[i].Time != legacy[i].Time || over[i].Bytes != legacy[i].Bytes {
			t.Errorf("group %d: %+v vs %+v", i, over[i], legacy[i])
		}
	}
	if got, want := PointToPointOver(e, n, false, b), PointToPointOver(flat(share), n, false, b); got != want {
		t.Errorf("PointToPointOver inter = %v, legacy %v", got, want)
	}
	if got, want := PointToPointOver(e, n, true, b), PointToPointOver(flat(cl.Node.IntraBW), n, false, b); got != want {
		t.Errorf("PointToPointOver intra = %v, legacy NVLink %v", got, want)
	}
}

// TestHierarchicalRidesClusterTopology: giving the cluster ABCI's 2-NIC
// fabric speeds up the hierarchical collective's inter-node ring, and an
// oversubscribed fat tree slows it back down.
func TestHierarchicalRidesClusterTopology(t *testing.T) {
	cl := hw.ABCI()
	b := MPI()
	n := unit.Bytes(256 << 20)
	flat := HierarchicalAllReduce(n, cl, 512, b)
	abci := HierarchicalAllReduce(n, cl.WithTopology(topo.ABCI()), 512, b)
	over := HierarchicalAllReduce(n, cl.WithTopology(topo.FatTree(8)), 512, b)
	if abci >= flat {
		t.Errorf("abci (%v) should beat flat (%v): twice the egress", abci, flat)
	}
	if over <= flat {
		t.Errorf("8:1 oversubscribed (%v) should lose to flat (%v)", over, flat)
	}
}

// TestPhasedGroupsThresholdFollowsTopology: a fatter fabric raises the
// merge threshold (bandwidth-latency product), so the same payloads form
// fewer, larger groups.
func TestPhasedGroupsThresholdFollowsTopology(t *testing.T) {
	cl := hw.ABCI()
	b := MPI()
	sizes := make([]unit.Bytes, 48)
	for i := range sizes {
		sizes[i] = 3 << 20
	}
	flat := PhasedGroups(sizes, cl, 512, b)
	abci := PhasedGroups(sizes, cl.WithTopology(topo.ABCI()), 512, b)
	if len(abci) > len(flat) {
		t.Errorf("abci formed %d groups, flat %d; more bandwidth should merge harder", len(abci), len(flat))
	}
}
