package dist

import (
	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/karma"
	"karma/internal/memo"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/tensor"
	"karma/internal/unit"
)

// CacheStats is a point-in-time snapshot of one or more evaluator
// caches, exposed so karma-serve's /stats endpoint can report the
// process-wide memoization behaviour.
type CacheStats = memo.Stats

// SharedCacheStats sums the process-wide evaluator caches both backends
// share (graph/shard builds, replica and shard profiles, schedules,
// checkpoint scans).
func SharedCacheStats() CacheStats {
	var s CacheStats
	s.Add(sharedGraphs.Stats())
	s.Add(sharedReplicas.Stats())
	s.Add(sharedShards.Stats())
	s.Add(sharedProfiles.Stats())
	s.Add(sharedScheds.Stats())
	s.Add(sharedScans.Stats())
	return s
}

// CacheStats reports the planner-backed evaluator's instance caches: the
// KARMA replica partition searches (the replica profiles they search
// live in the shared set) and the compiled plan-shape templates.
func (p *Planned) CacheStats() CacheStats {
	s := p.schedules.Stats()
	s.Add(p.templates.Stats())
	return s
}

// ---------------------------------------------------------------------------
// Cross-grid memoization shared by both evaluator backends
// ---------------------------------------------------------------------------
//
// Model graphs are interned by the value that builds them: a transformer
// config (CachedTransformer) or a model name (CachedModel). Every panel
// builder and the daemon resolve graphs through these two memos, so one
// configuration is one *graph.Graph for the life of the process, and
// the graph-keyed replica profiles below (and the Planned partition
// searches keyed by those profiles) hit across panels, passes and
// requests. Interning is exact by construction: equal keys build equal
// graphs, and nothing mutates a graph once built.
//
// The hybrid and pipeline setup paths (hybridSetup, pipelineSetup) are
// pure functions of value-typed inputs: a transformer config, an MP
// degree, a node spec, a batch, a dtype, a byte budget. Dense sweeps
// hit the same (model, mp, precision) shard from many grid points —
// every GPU count of a Fig. 8 row, both exchange variants of the MP+DP
// curve, every topology of the sensitivity ladder — so the builds,
// profiles, in-core/checkpointed schedules and footprints are memoized
// process-wide, keyed by value (the replica profiles by interned graph).
// Both
// backends share these caches: the planned path re-simulates each
// configuration's exchange composition, but never re-profiles or
// re-partitions a shard shape the analytic path already solved.

// modelKey identifies a (possibly MP-sharded) transformer build: mp >=
// 1 selects the mp-way tensor-parallel shard build (the hybrids always
// profile the shard graph, degree 1 included, so collective markers are
// present), mp == 0 the plain full-model build the pipeline baseline
// partitions.
type modelKey struct {
	cfg model.TransformerConfig
	mp  int
}

// shardProfileKey identifies a shard profile: the build plus the
// profiling batch, node and dtype.
type shardProfileKey struct {
	mk    modelKey
	node  hw.Node
	batch int
	dt    tensor.DType
}

// shardSchedKey identifies an in-core or checkpointed schedule of a
// shard profile under an activation budget.
type shardSchedKey struct {
	pk     shardProfileKey
	budget unit.Bytes
	ckpt   bool
}

// graphKey identifies a full-model build by the value that builds it:
// a transformer config, or (cfg zero) a model.Build registry name.
type graphKey struct {
	cfg  model.TransformerConfig
	name string
}

// replicaKey identifies a full-model replica profile: an interned graph
// plus the profiling node, batch and dtype.
type replicaKey struct {
	g     *graph.Graph
	node  hw.Node
	batch int
	dt    tensor.DType
}

var (
	sharedGraphs   memo.Cache[graphKey, *graph.Graph]
	sharedReplicas memo.Cache[replicaKey, *profiler.Profile]
	sharedShards   memo.Cache[modelKey, *model.Shard]
	sharedProfiles memo.Cache[shardProfileKey, *profiler.Profile]
	sharedScheds   memo.Cache[shardSchedKey, *karma.Schedule]
	sharedScans    memo.Cache[shardProfileKey, *karma.CheckpointScan]
)

// CachedTransformer returns the interned full-model build for cfg: every
// call with an equal config returns the same *graph.Graph, so the
// graph-keyed profile and partition-search caches hit instead of
// growing. Callers must not mutate the graph.
func CachedTransformer(cfg model.TransformerConfig) *graph.Graph {
	g, _ := sharedGraphs.Do(graphKey{cfg: cfg}, func() (*graph.Graph, error) {
		return model.Transformer(cfg), nil
	})
	return g
}

// CachedModel returns the interned model.Build graph for a model name
// (same contract as CachedTransformer). An unknown name returns
// model.Build's error, which is never cached.
func CachedModel(name string) (*graph.Graph, error) {
	return sharedGraphs.Do(graphKey{name: name}, func() (*graph.Graph, error) {
		return model.Build(name)
	})
}

// replicaProfile returns the memoized full-model replica profile of g —
// the one profile both backends' KARMADataParallel and DataParallel
// cost, so a grid point profiled by either is never profiled again.
// The key holds g's pointer: pass interned graphs (CachedTransformer,
// CachedModel) for cross-call hits.
func replicaProfile(g *graph.Graph, node hw.Node, batch int, dt tensor.DType) (*profiler.Profile, error) {
	return sharedReplicas.Do(replicaKey{g: g, node: node, batch: batch, dt: dt}, func() (*profiler.Profile, error) {
		return profiler.New(g, node, profiler.Options{Batch: batch, DType: dt})
	})
}

// cachedShard returns the memoized 1/mp tensor-parallel shard build.
func cachedShard(cfg model.TransformerConfig, mp int) *model.Shard {
	s, _ := sharedShards.Do(modelKey{cfg: cfg, mp: mp}, func() (*model.Shard, error) {
		return model.TransformerShard(cfg, mp), nil
	})
	return s
}

// cachedProfile returns the memoized profile for a model key: the
// mp-way shard build for mp >= 1, the full model for mp == 0 (the
// pipeline baseline partitions the unsharded transformer).
func cachedProfile(k shardProfileKey) (*profiler.Profile, error) {
	return sharedProfiles.Do(k, func() (*profiler.Profile, error) {
		g := CachedTransformer(k.mk.cfg)
		if k.mk.mp >= 1 {
			g = cachedShard(k.mk.cfg, k.mk.mp).Graph
		}
		return profiler.New(g, k.node, profiler.Options{Batch: k.batch, DType: k.dt})
	})
}

// cachedSchedule returns the memoized in-core (or checkpointed)
// schedule of the profile under the activation budget, or nil when the
// regime cannot fit — the capacity verdict both backends share. The
// checkpointed regime fits through the profile's cachedScan. The
// profile must be the cachedProfile of k.pk (the key carries the
// identity; the pointer carries the data).
//
// "Does not fit" is a pure verdict of the key, so it is cached as a nil
// *value* rather than an error: the cache never retains errors, but a
// sweep that probes the same infeasible cell from every GPU count (the
// ZeRO capacity-batch boundary) must not re-run the capacity search per
// grid point.
func cachedSchedule(k shardSchedKey, p *profiler.Profile) *karma.Schedule {
	s, _ := sharedScheds.Do(k, func() (*karma.Schedule, error) {
		var s *karma.Schedule
		var err error
		if k.ckpt {
			s, err = cachedScan(k.pk, p).Fit(k.budget)
		} else {
			s, err = karma.InCore(p, k.budget)
		}
		if err != nil {
			return nil, nil // the verdict: this regime cannot fit
		}
		return s, nil
	})
	return s
}

// cachedScan returns the shard profile's checkpoint scan, one per
// profile key: every budget a capacity ladder probes (ZeRO's changes
// with the GPU count) and the infeasible verdict's minimal footprint
// read the same run-count table, so no run count of a profile is costed
// twice.
func cachedScan(k shardProfileKey, p *profiler.Profile) *karma.CheckpointScan {
	sc, _ := sharedScans.Do(k, func() (*karma.CheckpointScan, error) {
		return karma.NewCheckpointScan(p), nil
	})
	return sc
}
