// Package hw describes the hardware the performance model runs against:
// accelerator devices (near memory), hosts (far memory), the interconnect
// between them, and multi-node clusters. Presets mirror the ABCI
// supercomputer used in the paper's evaluation (Table II).
package hw

import (
	"fmt"

	"karma/internal/tensor"
	"karma/internal/topo"
	"karma/internal/unit"
)

// Device models an accelerator: its dedicated (near) memory and compute
// throughput. Efficiency folds achievable-vs-peak utilization into one
// factor; per-layer deviations are handled by the cost model.
type Device struct {
	Name string
	// MemCapacity is the dedicated device memory (near memory).
	MemCapacity unit.Bytes
	// Reserved is memory unavailable to tensors (CUDA context, cuDNN
	// workspaces, allocator slack) — the profiler subtracts it.
	Reserved unit.Bytes
	// PeakFLOPS is the peak dense-math throughput.
	PeakFLOPS unit.FLOPSRate
	// Efficiency is the sustained fraction of peak for DL kernels.
	Efficiency float64
	// MemBW is the device (near) memory bandwidth.
	MemBW unit.BytesPerSec
	// TensorCoreBoost multiplies the sustained rate for fp16 math that
	// can ride the tensor cores (SustainedFLOPSFor). Zero disables the
	// boost — the seed model's behavior, where compute rates are held
	// constant across precisions so precision sweeps isolate memory
	// effects. Set it (e.g. ~4 for a V100's achievable mixed-precision
	// speedup on transformer GEMMs) to model the tensor-core lever the
	// ROADMAP names.
	TensorCoreBoost float64
}

// UsableMem returns the capacity available for tensors.
func (d Device) UsableMem() unit.Bytes { return d.MemCapacity - d.Reserved }

// SustainedFLOPS returns the effective compute rate for full-precision
// math.
func (d Device) SustainedFLOPS() unit.FLOPSRate {
	return unit.FLOPSRate(float64(d.PeakFLOPS) * d.Efficiency)
}

// SustainedFLOPSFor returns the effective compute rate for math at the
// given element type: the fp32 sustained rate, scaled by TensorCoreBoost
// for fp16 when the boost is enabled.
func (d Device) SustainedFLOPSFor(dt tensor.DType) unit.FLOPSRate {
	r := d.SustainedFLOPS()
	if dt == tensor.FP16 && d.TensorCoreBoost > 0 {
		r = unit.FLOPSRate(float64(r) * d.TensorCoreBoost)
	}
	return r
}

// WithTensorCores returns a copy of the device with the fp16 tensor-core
// boost enabled at the given sustained-speedup factor.
func (d Device) WithTensorCores(boost float64) Device {
	d.TensorCoreBoost = boost
	return d
}

// Validate reports configuration errors.
func (d Device) Validate() error {
	if d.MemCapacity <= 0 || d.Reserved < 0 || d.Reserved >= d.MemCapacity {
		return fmt.Errorf("hw: device %s: bad memory config (cap=%v reserved=%v)", d.Name, d.MemCapacity, d.Reserved)
	}
	if d.PeakFLOPS <= 0 || d.Efficiency <= 0 || d.Efficiency > 1 {
		return fmt.Errorf("hw: device %s: bad compute config", d.Name)
	}
	if d.MemBW <= 0 {
		return fmt.Errorf("hw: device %s: bad memory bandwidth", d.Name)
	}
	if d.TensorCoreBoost < 0 {
		return fmt.Errorf("hw: device %s: negative tensor-core boost %g", d.Name, d.TensorCoreBoost)
	}
	return nil
}

// Host models the CPU side: far memory and the host compute rate used for
// CPU-side weight updates (§III-G stage 5).
type Host struct {
	Name      string
	MemBW     unit.BytesPerSec
	PeakFLOPS unit.FLOPSRate
	// Efficiency is the sustained fraction of peak for the SGD update
	// kernel (bandwidth-bound stream operation).
	Efficiency float64
}

// SustainedFLOPS returns the effective host compute rate.
func (h Host) SustainedFLOPS() unit.FLOPSRate {
	return unit.FLOPSRate(float64(h.PeakFLOPS) * h.Efficiency)
}

// Link models the bidirectional device<->host interconnect.
type Link struct {
	Name string
	// BWPerDirection is the bandwidth available to each direction
	// simultaneously (PCIe and NVLink are full duplex — the paper's
	// overlap of swap-in with swap-out depends on this).
	BWPerDirection unit.BytesPerSec
	Latency        unit.Seconds
}

// Node is one machine: devices sharing a host over a link.
type Node struct {
	Name    string
	Device  Device
	Devices int
	Host    Host
	Link    Link
	// IntraBW is the device-to-device bandwidth inside the node (NVLink).
	IntraBW unit.BytesPerSec
}

// Cluster is a multi-node system joined by a network.
type Cluster struct {
	Name  string
	Node  Node
	Nodes int
	// NetBW is the injection bandwidth per node.
	NetBW unit.BytesPerSec
	// NetLatency is the per-message network latency.
	NetLatency unit.Seconds
	// Topology is the hierarchical interconnect model collectives route
	// over (internal/topo). The zero value keeps the seed behavior: a
	// flat single-rail fabric at NetBW, costed exactly like the old
	// contended-ring closed forms. Set it (topo.ABCI(), topo.FatTree(r),
	// or a hand-built Topology) to model rails, switch hops and
	// oversubscription.
	Topology topo.Topology
}

// TotalDevices returns the device count across the cluster.
func (c Cluster) TotalDevices() int { return c.Nodes * c.Node.Devices }

// Topo returns the cluster's interconnect topology with the intra-node
// tier filled in from the node shape — the single source the collective
// engine routes over. An unset Topology derives the flat model from the
// legacy NetBW field, reproducing the seed's contended-ring numbers
// exactly.
func (c Cluster) Topo() topo.Topology {
	t := c.Topology
	if t.IsZero() {
		t = topo.Flat(c.NetBW)
	}
	return t.WithNode(c.Node.Devices, c.Node.IntraBW)
}

// WithTopology returns a copy of the cluster routing its collectives
// over the given interconnect model.
func (c Cluster) WithTopology(t topo.Topology) Cluster {
	c.Topology = t
	return c
}

// SwapThroughput returns the effective block swap throughput of Eq. (4):
// the minimum of far-memory, near-memory and interconnect throughput.
func SwapThroughput(n Node) unit.BytesPerSec {
	bw := n.Link.BWPerDirection
	if n.Host.MemBW < bw {
		bw = n.Host.MemBW
	}
	if n.Device.MemBW < bw {
		bw = n.Device.MemBW
	}
	return bw
}

// V100 returns the Tesla V100 SXM2 16 GiB of Table II. Peak is the Tensor
// Core-less FP32 rate the paper quotes (14.7 TFLOP/s, ~62% sustained on
// cuDNN convolution benchmarks).
func V100() Device {
	return Device{
		Name:        "V100-SXM2-16GB",
		MemCapacity: 16 * unit.GiB,
		Reserved:    unit.Bytes(1.25 * float64(unit.GiB)),
		PeakFLOPS:   unit.FLOPSRate(14.7e12),
		Efficiency:  0.62,
		MemBW:       900 * unit.GBps,
	}
}

// ABCIHost returns the dual Xeon Gold 6148 host of an ABCI node.
func ABCIHost() Host {
	return Host{
		Name:  "2x Xeon Gold 6148",
		MemBW: 255 * unit.GBps, // 6 channels DDR4-2666 x 2 sockets
		// 2 sockets x 20 cores x 2 FMA AVX-512 x 16 lanes x 2 ops x 2.4 GHz
		PeakFLOPS:  unit.FLOPSRate(3.07e12),
		Efficiency: 0.25, // SGD update is a stream kernel, memory bound
	}
}

// PCIeGen3x16 returns the host link of Table II (16 GB/s per direction).
func PCIeGen3x16() Link {
	return Link{Name: "PCIe Gen3 x16", BWPerDirection: 16 * unit.GBps, Latency: 10e-6}
}

// ABCINode returns one ABCI compute node: 4x V100 over PCIe with NVLink
// between devices (50 GB/s, Table II).
func ABCINode() Node {
	return Node{
		Name:    "abci-node",
		Device:  V100(),
		Devices: 4,
		Host:    ABCIHost(),
		Link:    PCIeGen3x16(),
		IntraBW: 50 * unit.GBps,
	}
}

// ABCI returns the full ABCI cluster: 1,088 nodes (4,352 GPUs) on dual-rail
// EDR InfiniBand (12.5 GB/s, Table II).
func ABCI() Cluster {
	return Cluster{
		Name:       "ABCI",
		Node:       ABCINode(),
		Nodes:      1088,
		NetBW:      12.5 * unit.GBps,
		NetLatency: 2e-6,
	}
}
