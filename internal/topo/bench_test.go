package topo

import (
	"testing"

	"karma/internal/unit"
)

// BenchmarkTopoCollectives times the collective cost layer the cluster
// evaluators call per grid point: ring, reduce-scatter, hierarchical
// all-reduce, point-to-point (inter- and intra-node) and the phased
// merge threshold, over the ABCI two-tier topology with 4 concurrent
// shard collectives per node, for a 64 MiB payload on 512 GPUs.
func BenchmarkTopoCollectives(b *testing.B) {
	e := Engine{T: ABCI(), Concurrent: 4}
	const n = 64 * unit.MiB
	const gpus = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Ring(n, gpus/4, nccl)
		e.ReduceScatter(n, gpus/4, nccl)
		e.Hierarchical(n, gpus, nccl)
		e.PointToPoint(n, nccl)
		e.PointToPointIntra(n, nccl)
		e.MergeThreshold(gpus/4, nccl)
	}
}
