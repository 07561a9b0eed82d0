package experiments

import (
	"strings"
	"testing"

	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

// TestWarmPassAddsNoMisses: panel builders intern their graphs
// (dist.CachedTransformer, dist.CachedModel), so regenerating the same
// panels a second time with one planned evaluator re-profiles,
// re-partitions and re-searches nothing, and — the evaluator's
// CacheStats count its plan-shape templates too — re-lowers no plan
// shape: the templates built on the first pass all stay resident. A
// panel that built a fresh graph would miss every graph-keyed cache
// again on the second pass. Not parallel: the shared caches are
// process-wide.
func TestWarmPassAddsNoMisses(t *testing.T) {
	cl := hw.ABCI()
	pe := dist.NewPlanned()
	fo := FamilyOptions{Ckpt: true, Precision: tensor.MixedFP16, Pipeline: true, Workers: 2}
	pass := func() {
		t.Helper()
		if _, err := Figure8Turing(cl, []int{512, 1024, 2048}, pe, fo); err != nil {
			t.Fatal(err)
		}
		if _, err := TableIV(cl, pe, fo); err != nil {
			t.Fatal(err)
		}
		if _, err := TableV(cl, pe, fo.Workers); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	planned, shared := pe.CacheStats(), dist.SharedCacheStats()
	pass()
	if got := pe.CacheStats(); got.Misses != planned.Misses || got.Evictions != planned.Evictions || got.Hits <= planned.Hits {
		t.Errorf("planned caches: %+v after the warm pass, %+v after the cold one; want more hits, no new miss and no eviction", got, planned)
	}
	if got := dist.SharedCacheStats(); got.Misses != shared.Misses || got.Hits <= shared.Hits {
		t.Errorf("shared caches: %+v after the warm pass, %+v after the cold one; want more hits and no new miss", got, shared)
	}
}

// TestTableVUnknownModel: an unknown model name is an error, not a
// panic, and the failed build is not interned — the next lookup retries
// (and misses) again rather than serving a cached failure.
func TestTableVUnknownModel(t *testing.T) {
	const name = "no-such-model"
	if _, err := model.Build(name); err == nil {
		t.Fatalf("model.Build(%q) succeeded; the test needs an unknown name", name)
	}
	before := dist.SharedCacheStats()
	for i := 1; i <= 2; i++ {
		rows, err := TableVModel(hw.ABCI(), name, 4, 2, 1_280_000, dist.Analytic{}, 1)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("TableVModel(%q) = %v, %v; want an error naming the model", name, rows, err)
		}
		s := dist.SharedCacheStats()
		if s.Entries != before.Entries {
			t.Errorf("lookup %d cached the failure: %d entries, had %d", i, s.Entries, before.Entries)
		}
		if s.Misses != before.Misses+uint64(i) {
			t.Errorf("lookup %d: %d misses, want %d (a failed build must be retried)", i, s.Misses, before.Misses+uint64(i))
		}
	}
}
