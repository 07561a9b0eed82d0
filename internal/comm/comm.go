// Package comm models the collective-communication substrate of the
// multi-node evaluation (§III-G, Fig. 3 stage 4): communication backends
// (NCCL vs the MPI backend the paper fell back to at >1,000 GPUs) and the
// phased gradient exchange — the layer-grouping scheme of Shi et al. the
// paper adopts for blocks. Collective costs are a thin façade over the
// hierarchical interconnect engine of internal/topo: every ring,
// hierarchical, reduce-scatter/all-gather and point-to-point transfer is
// routed over the cluster's Topology (rails, switch hops,
// oversubscription, contention).
package comm

import (
	"fmt"

	"karma/internal/hw"
	"karma/internal/topo"
	"karma/internal/unit"
)

// Backend describes a communication library's performance envelope.
type Backend struct {
	Name string
	// Latency per collective step.
	Latency unit.Seconds
	// BWEfficiency is the achieved fraction of link bandwidth.
	BWEfficiency float64
	// MaxReliableGPUs is the scale above which the backend is considered
	// unstable (0 = unlimited). The paper reports NCCL instability beyond
	// ~1,000 GPUs (§III-H) and switches to MPI.
	MaxReliableGPUs int
}

// Xfer returns the backend's envelope in the form the topology engine
// costs routes under.
func (b Backend) Xfer() topo.Xfer {
	return topo.Xfer{Latency: b.Latency, Eff: b.BWEfficiency}
}

// NCCL returns the NCCL-like backend: low latency, high efficiency,
// unstable at extreme scale.
func NCCL() Backend {
	return Backend{Name: "nccl", Latency: 5e-6, BWEfficiency: 0.90, MaxReliableGPUs: 1024}
}

// MPI returns the PyTorch MPI-backend envelope used for the large runs.
func MPI() Backend {
	return Backend{Name: "mpi", Latency: 15e-6, BWEfficiency: 0.80}
}

// Reliable reports whether the backend is usable at the given scale.
func (b Backend) Reliable(gpus int) bool {
	return b.MaxReliableGPUs == 0 || gpus <= b.MaxReliableGPUs
}

// Pick returns NCCL when reliable at the scale, MPI otherwise — the
// paper's operational rule.
func Pick(gpus int) Backend {
	if n := NCCL(); n.Reliable(gpus) {
		return n
	}
	return MPI()
}

// ClusterEngine returns the routing engine for one collective with sole
// use of the cluster's interconnect (KARMA's single data-parallel
// exchange spanning every device).
func ClusterEngine(c hw.Cluster) topo.Engine {
	return topo.Engine{T: c.Topo()}
}

// RingAllReduceOver returns the ring all-reduce time for n bytes among p
// endpoints routed over a topology engine: 2(p-1) steps each moving n/p
// bytes, every step crossing the engine's inter-node route and paying
// its bottleneck bandwidth (after rail aggregation, oversubscription and
// contention) and per-hop latency.
func RingAllReduceOver(e topo.Engine, n unit.Bytes, p int, b Backend) unit.Seconds {
	return e.Ring(n, p, b.Xfer())
}

// HierarchicalAllReduce composes the collective over the cluster's
// topology: intra-node reduce over the device tier, inter-node ring over
// the node routes, then intra-node broadcast — the standard multi-rail
// scheme on ABCI-like machines. gpus is the total participating device
// count.
func HierarchicalAllReduce(n unit.Bytes, c hw.Cluster, gpus int, b Backend) unit.Seconds {
	return ClusterEngine(c).Hierarchical(n, gpus, b.Xfer())
}

// Group is one phase of the phased gradient exchange: consecutive blocks
// whose gradients are merged into a single collective.
type Group struct {
	// Blocks are indices (in completion order) merged into this phase.
	Blocks []int
	Bytes  unit.Bytes
	Time   unit.Seconds
}

// mergeGroups applies the Shi et al. grouping rule: blocks merge into a
// phase while the accumulated payload is below the latency-bandwidth
// threshold of the collective, and each flushed group is costed by the
// caller's collective model.
func mergeGroups(sizes []unit.Bytes, threshold unit.Bytes, cost func(unit.Bytes) unit.Seconds) []Group {
	var out []Group
	cur := Group{}
	flush := func() {
		if len(cur.Blocks) == 0 {
			return
		}
		cur.Time = cost(cur.Bytes)
		out = append(out, cur)
		cur = Group{}
	}
	for i, s := range sizes {
		if s < 0 {
			panic(fmt.Sprintf("comm: negative block size %d", s))
		}
		cur.Blocks = append(cur.Blocks, i)
		cur.Bytes += s
		if cur.Bytes >= threshold {
			flush()
		}
	}
	flush()
	return out
}

// PhasedGroups merges per-block gradient payloads (in backward completion
// order) into exchange phases following the Shi et al. grouping rule the
// paper adopts (§III-G): merging amortizes per-collective latency, but a
// group must stay small enough that communication still overlaps the
// remaining backward work. Blocks merge while a group's payload is below
// the latency-bandwidth product threshold of the collective; each group
// is costed as a hierarchical all-reduce over the cluster's topology.
func PhasedGroups(sizes []unit.Bytes, c hw.Cluster, gpus int, b Backend) []Group {
	if len(sizes) == 0 {
		return nil
	}
	e := ClusterEngine(c)
	nodes := (gpus + c.Node.Devices - 1) / c.Node.Devices
	threshold := e.MergeThreshold(nodes, b.Xfer())
	return mergeGroups(sizes, threshold, func(n unit.Bytes) unit.Seconds {
		return e.Hierarchical(n, gpus, b.Xfer())
	})
}

// RingPhasedGroupsOver merges per-block payloads (in backward completion
// order) into exchange phases for a ring over p endpoints routed over a
// topology engine — the PhasedGroups rule applied to the contended ring
// of the in-core hybrids' data-parallel exchange, where one replica per
// node participates in each of the node's concurrent shard collectives.
// Each group's Time is the ring all-reduce of its payload; a
// reduce-scatter or all-gather phase costs exactly half (half the ring
// steps).
func RingPhasedGroupsOver(e topo.Engine, sizes []unit.Bytes, p int, b Backend) []Group {
	if len(sizes) == 0 {
		return nil
	}
	threshold := e.MergeThreshold(p, b.Xfer())
	return mergeGroups(sizes, threshold, func(n unit.Bytes) unit.Seconds {
		return e.Ring(n, p, b.Xfer())
	})
}

// PointToPointOver routes a two-endpoint transfer over a topology
// engine's inter-node route (local == false) or its intra-node device
// tier (local == true) — the pipeline's stage-boundary wire.
func PointToPointOver(e topo.Engine, n unit.Bytes, local bool, b Backend) unit.Seconds {
	if local {
		return e.PointToPointIntra(n, b.Xfer())
	}
	return e.PointToPoint(n, b.Xfer())
}
