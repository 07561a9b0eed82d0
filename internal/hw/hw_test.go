package hw

import (
	"testing"

	"karma/internal/tensor"
	"karma/internal/topo"
	"karma/internal/unit"
)

func TestV100Preset(t *testing.T) {
	d := V100()
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.MemCapacity != 16*unit.GiB {
		t.Errorf("V100 capacity = %v, want 16 GiB (Table II)", d.MemCapacity)
	}
	if d.UsableMem() >= d.MemCapacity || d.UsableMem() <= 0 {
		t.Errorf("UsableMem = %v out of range", d.UsableMem())
	}
	if got := d.SustainedFLOPS(); got <= 0 || got >= d.PeakFLOPS {
		t.Errorf("SustainedFLOPS = %v, want in (0, peak)", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Device{
		{Name: "no-mem", PeakFLOPS: 1, Efficiency: 0.5, MemBW: 1},
		{Name: "reserved>cap", MemCapacity: 10, Reserved: 10, PeakFLOPS: 1, Efficiency: 0.5, MemBW: 1},
		{Name: "no-flops", MemCapacity: 10, Efficiency: 0.5, MemBW: 1},
		{Name: "eff>1", MemCapacity: 10, PeakFLOPS: 1, Efficiency: 1.5, MemBW: 1},
		{Name: "no-bw", MemCapacity: 10, PeakFLOPS: 1, Efficiency: 0.5},
	}
	for _, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", d.Name)
		}
	}
}

func TestSwapThroughputIsMin(t *testing.T) {
	n := ABCINode()
	// Eq. (4): the PCIe link is the bottleneck on an ABCI node.
	if got := SwapThroughput(n); got != n.Link.BWPerDirection {
		t.Errorf("SwapThroughput = %v, want link bw %v", got, n.Link.BWPerDirection)
	}
	// A slower host memory should become the bottleneck.
	n.Host.MemBW = 1 * unit.GBps
	if got := SwapThroughput(n); got != 1*unit.GBps {
		t.Errorf("SwapThroughput = %v, want 1 GB/s", got)
	}
}

func TestABCICluster(t *testing.T) {
	c := ABCI()
	if got := c.TotalDevices(); got != 4352 {
		t.Errorf("ABCI devices = %d, want 4352 (Table II)", got)
	}
	if c.Node.Devices != 4 {
		t.Errorf("devices per node = %d, want 4", c.Node.Devices)
	}
	if c.NetBW != 12.5*unit.GBps {
		t.Errorf("net bw = %v, want 12.5 GB/s", c.NetBW)
	}
}

func TestHostSustained(t *testing.T) {
	h := ABCIHost()
	if h.SustainedFLOPS() <= 0 || h.SustainedFLOPS() >= h.PeakFLOPS {
		t.Errorf("host sustained = %v out of range", h.SustainedFLOPS())
	}
	// The paper's premise: CPU update is much slower than GPU compute.
	if float64(h.SustainedFLOPS()) >= float64(V100().SustainedFLOPS()) {
		t.Error("host must be slower than device")
	}
}

func TestPCIeMatchesTableII(t *testing.T) {
	l := PCIeGen3x16()
	if l.BWPerDirection != 16*unit.GBps {
		t.Errorf("PCIe bw = %v, want 16 GB/s", l.BWPerDirection)
	}
}

func TestTensorCoreBoost(t *testing.T) {
	d := V100()
	if got := d.SustainedFLOPSFor(tensor.FP16); got != d.SustainedFLOPS() {
		t.Errorf("boost off: fp16 rate %v should equal fp32 rate %v", got, d.SustainedFLOPS())
	}
	b := d.WithTensorCores(4)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := b.SustainedFLOPSFor(tensor.FP16), unit.FLOPSRate(4*float64(d.SustainedFLOPS())); got != want {
		t.Errorf("boosted fp16 rate = %v, want %v", got, want)
	}
	// fp32 math never rides the tensor cores in this model.
	if got := b.SustainedFLOPSFor(tensor.FP32); got != d.SustainedFLOPS() {
		t.Errorf("boosted fp32 rate = %v, want unchanged %v", got, d.SustainedFLOPS())
	}
	bad := d
	bad.TensorCoreBoost = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative boost should fail validation")
	}
}

func TestClusterTopoDefaultsToFlat(t *testing.T) {
	c := ABCI()
	tp := c.Topo()
	if tp.Name != "flat" {
		t.Fatalf("unset topology should derive flat, got %q", tp.Name)
	}
	if tp.NICs != 1 || tp.NICBW != c.NetBW {
		t.Errorf("flat topology carries %d NICs at %v, want 1 at %v", tp.NICs, tp.NICBW, c.NetBW)
	}
	if tp.DevicesPerNode != c.Node.Devices || tp.IntraBW != c.Node.IntraBW {
		t.Errorf("intra-node tier %d/%v not filled from node %d/%v",
			tp.DevicesPerNode, tp.IntraBW, c.Node.Devices, c.Node.IntraBW)
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("derived topology invalid: %v", err)
	}
}

func TestClusterWithTopology(t *testing.T) {
	c := ABCI().WithTopology(topo.ABCI())
	tp := c.Topo()
	if tp.Name != "abci" || tp.NICs != 2 {
		t.Fatalf("Topo() = %+v, want the abci preset", tp)
	}
	// The node shape always comes from the cluster, never the preset.
	if tp.DevicesPerNode != 4 || tp.IntraBW != 50*unit.GBps {
		t.Errorf("intra tier %d/%v, want 4/50 GB/s", tp.DevicesPerNode, tp.IntraBW)
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("abci topology invalid: %v", err)
	}
}
