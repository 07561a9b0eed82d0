package dist

import (
	"testing"

	"karma/internal/profiler"
)

// TestMemoStatsAggregate checks the exported stats surfaces sum their
// member caches (the /stats endpoint of karma-serve reads these).
func TestMemoStatsAggregate(t *testing.T) {
	pe := NewPlanned()
	if s := pe.CacheStats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("fresh evaluator stats = %+v, want zeros", s)
	}
	pe.profiles.Do(profileKey{batch: 1}, func() (*profiler.Profile, error) {
		return nil, nil
	})
	if s := pe.CacheStats(); s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after one miss: %+v", s)
	}
	// The shared caches are process-wide: only check the snapshot is
	// coherent (entries resident implies lookups happened).
	sh := SharedCacheStats()
	if sh.Entries > 0 && sh.Hits+sh.Misses == 0 {
		t.Errorf("shared stats incoherent: %+v", sh)
	}
}
