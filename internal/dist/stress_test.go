package dist

import (
	"fmt"
	"sync"
	"testing"

	"karma/internal/hw"
	"karma/internal/memo"
	"karma/internal/model"
)

// sameResult compares two results by value, following the Breakdown
// pointer (plain struct equality stopped meaning "same verdict" when
// Result gained the attribution payload).
func sameResult(a, b *Result) bool {
	if (a.Breakdown == nil) != (b.Breakdown == nil) {
		return false
	}
	if a.Breakdown != nil && *a.Breakdown != *b.Breakdown {
		return false
	}
	x, y := *a, *b
	x.Breakdown, y.Breakdown = nil, nil
	return x == y
}

// TestPlannedConcurrentStress hammers one shared Planned evaluator from
// many goroutines — the exact shape a parallel sweep produces. Half the
// work hits overlapping cache keys (every goroutine evaluates the same
// Megatron-2.5B hybrid, so the singleflight memos must dedupe one
// planning run under contention), half hits distinct keys (per-goroutine
// GPU counts and configs, which must proceed in parallel without
// corrupting each other). Run under -race this is the data-race gate
// for the memo caches; the value checks make it a determinism gate too:
// every concurrent result must equal the serial reference bit-for-bit.
func TestPlannedConcurrentStress(t *testing.T) {
	cl := hw.ABCI()
	cfgs := model.MegatronConfigs()
	const samples = 1_000_000

	// Serial references on a private evaluator.
	ref := NewPlanned()
	refShared, err := ref.MegatronHybrid(cfgs[2], cl, 4, 256, 4, samples, HybridOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	refZero := make(map[int]*Result)
	for _, gpus := range []int{64, 128, 256, 512} {
		r, err := ref.ZeRO(cfgs[1], cl, 2, gpus, 2, samples, HybridOptions{Phased: true, Checkpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		refZero[gpus] = r
	}
	refPipe, err := ref.Pipeline(cfgs[2], cl, 4, 256, 4, 4, samples, HybridOptions{Phased: true, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}

	// One shared evaluator, many goroutines, overlapping and distinct keys.
	pe := NewPlanned()
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Overlapping: every goroutine plans the same shard.
			shared, err := pe.MegatronHybrid(cfgs[2], cl, 4, 256, 4, samples, HybridOptions{Checkpoint: true})
			if err != nil {
				errs[g] = err
				return
			}
			if !sameResult(shared, refShared) {
				errs[g] = fmt.Errorf("shared hybrid diverged: %+v vs %+v", shared, refShared)
				return
			}
			// Distinct: a per-goroutine GPU count (ZeRO replans per count by
			// design — the gradient shard is part of the replica shape).
			gpus := []int{64, 128, 256, 512}[g%4]
			z, err := pe.ZeRO(cfgs[1], cl, 2, gpus, 2, samples, HybridOptions{Phased: true, Checkpoint: true})
			if err != nil {
				errs[g] = err
				return
			}
			if !sameResult(z, refZero[gpus]) {
				errs[g] = fmt.Errorf("zero@%d diverged: %+v vs %+v", gpus, z, refZero[gpus])
				return
			}
			// Overlapping again through a different family: the pipeline
			// path shares the full-model graph cache.
			p, err := pe.Pipeline(cfgs[2], cl, 4, 256, 4, 4, samples, HybridOptions{Phased: true, Checkpoint: true})
			if err != nil {
				errs[g] = err
				return
			}
			if !sameResult(p, refPipe) {
				errs[g] = fmt.Errorf("pipeline diverged: %+v vs %+v", p, refPipe)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}

	// Eviction-pressure pass: the same workload on an evaluator whose
	// instance memos are bounded far below the working set, so entries
	// are constantly evicted and recomputed mid-flight. Every cached
	// computation is a pure function of its key, so churn may cost time
	// but must never change a value — and under -race this exercises the
	// LRU surgery concurrently with singleflight joins.
	tiny := NewPlanned()
	tiny.schedules = memo.New[schedKey, planOutcome](2)
	var ewg sync.WaitGroup
	eerrs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		ewg.Add(1)
		go func(g int) {
			defer ewg.Done()
			gpus := []int{64, 128, 256, 512}[g%4]
			z, err := tiny.ZeRO(cfgs[1], cl, 2, gpus, 2, samples, HybridOptions{Phased: true, Checkpoint: true})
			if err != nil {
				eerrs[g] = err
				return
			}
			if !sameResult(z, refZero[gpus]) {
				eerrs[g] = fmt.Errorf("zero@%d diverged under eviction churn: %+v vs %+v", gpus, z, refZero[gpus])
				return
			}
			shared, err := tiny.MegatronHybrid(cfgs[2], cl, 4, 256, 4, samples, HybridOptions{Checkpoint: true})
			if err != nil {
				eerrs[g] = err
				return
			}
			if !sameResult(shared, refShared) {
				eerrs[g] = fmt.Errorf("hybrid diverged under eviction churn: %+v vs %+v", shared, refShared)
			}
		}(g)
	}
	ewg.Wait()
	for g, err := range eerrs {
		if err != nil {
			t.Errorf("eviction goroutine %d: %v", g, err)
		}
	}
}
