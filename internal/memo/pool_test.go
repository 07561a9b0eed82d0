package memo

import (
	"runtime"
	"sync"
	"testing"
)

// TestPoolLIFOAndBound checks the free list's order and bound: Get
// returns the most recent Put first, a Put beyond the bound is dropped,
// and an empty pool makes a new value.
func TestPoolLIFOAndBound(t *testing.T) {
	made := 0
	p := &Pool[*int]{limit: 2, new: func() *int { made++; return new(int) }}
	a, b, c := new(int), new(int), new(int)
	p.Put(a)
	p.Put(b)
	p.Put(c) // beyond the bound: dropped
	if got := p.Get(); got != b {
		t.Errorf("first Get = %p, want the last value kept (%p)", got, b)
	}
	if got := p.Get(); got != a {
		t.Errorf("second Get = %p, want %p", got, a)
	}
	if made != 0 {
		t.Errorf("new called %d times while values were free", made)
	}
	if got := p.Get(); got == a || got == b || got == c || made != 1 {
		t.Errorf("Get on an empty pool returned %p after %d calls of new, want a new value", got, made)
	}
}

// TestPoolSurvivesGC is the property sync.Pool lacks: values put back
// are still there after collections.
func TestPoolSurvivesGC(t *testing.T) {
	p := NewPool(func() *[64]byte { return new([64]byte) })
	if p.limit != runtime.GOMAXPROCS(0) {
		t.Errorf("bound %d, want GOMAXPROCS %d", p.limit, runtime.GOMAXPROCS(0))
	}
	v := p.Get()
	v[0] = 7
	p.Put(v)
	runtime.GC()
	runtime.GC()
	if got := p.Get(); got != v || got[0] != 7 {
		t.Errorf("Get after two GCs = %p, want the pooled %p", got, v)
	}
}

// TestPoolConcurrent has goroutines take and return values at once (run
// it under -race): no value is ever held by two goroutines, and the
// pool never exceeds its bound.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool(func() *int { return new(int) })
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := p.Get()
				*v = g
				runtime.Gosched()
				if *v != g {
					t.Errorf("goroutine %d: value rewritten while held", g)
					return
				}
				p.Put(v)
			}
		}(g)
	}
	wg.Wait()
	if n := len(p.free); n > p.limit {
		t.Errorf("pool holds %d values, bound %d", n, p.limit)
	}
}
