package plan

import (
	"runtime"
	"sync"
	"testing"

	"karma/internal/unit"
)

// TestScratchSurvivesGC checks that the shared free list keeps a
// scratch across garbage collections, which would empty a sync.Pool:
// the scratch handed back last is the one the next GetScratch returns.
func TestScratchSurvivesGC(t *testing.T) {
	sc := GetScratch()
	PutScratch(sc)
	runtime.GC()
	runtime.GC()
	got := GetScratch()
	defer PutScratch(got)
	if got != sc {
		t.Error("GetScratch after two GCs returned a new scratch, not the pooled one")
	}
}

// TestScratchConcurrentSimulate runs the Fig. 2c plan on pooled
// scratches from 8 goroutines at once (run it under -race): each
// makespan must equal the one a fresh scratch gives.
func TestScratchConcurrentSimulate(t *testing.T) {
	const capacity = unit.Bytes(40)
	_, tl, err := figure2c().Simulate(capacity)
	if err != nil {
		t.Fatal(err)
	}
	want := tl.Makespan
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := figure2c()
			for i := 0; i < 50; i++ {
				sc := GetScratch()
				_, tl, err := sc.Simulate(p, capacity)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				} else if tl.Makespan != want {
					t.Errorf("goroutine %d: makespan %v, want %v", g, tl.Makespan, want)
				}
				PutScratch(sc)
			}
		}(g)
	}
	wg.Wait()
}
