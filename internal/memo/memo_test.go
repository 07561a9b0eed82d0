package memo

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleflight checks the dedup contract: concurrent callers of
// one key share exactly one computation, distinct keys compute in
// parallel (not serialized behind each other's fn).
func TestSingleflight(t *testing.T) {
	c := New[int, int](0)
	var calls atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := c.Do(7, func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("key computed %d times, want 1", n)
	}
	for g, v := range results {
		if v != 42 {
			t.Errorf("goroutine %d got %d, want 42", g, v)
		}
	}
}

// TestErrorNotCached checks the daemon-safety half of the contract:
// a failing computation is forgotten as soon as its error is observed,
// so the next lookup retries — a transient failure must not poison a
// key for the life of the process.
func TestErrorNotCached(t *testing.T) {
	c := New[string, int](0)
	calls := 0
	boom := fmt.Errorf("transient")
	fn := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 99, nil
	}
	if _, err := c.Do("k", fn); err != boom {
		t.Fatalf("first call: err = %v, want %v", err, boom)
	}
	if got := c.Stats().Entries; got != 0 {
		t.Fatalf("after error: %d entries resident, want 0", got)
	}
	v, err := c.Do("k", fn)
	if err != nil || v != 99 {
		t.Fatalf("retry: got (%d, %v), want (99, nil)", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (fail once, retry once)", calls)
	}
	// The successful retry is cached normally.
	v, err = c.Do("k", func() (int, error) { t.Error("recomputed a cached success"); return 0, nil })
	if err != nil || v != 99 {
		t.Fatalf("cached: got (%d, %v), want (99, nil)", v, err)
	}
}

// TestErrorSharedByFlight checks that callers concurrent with a
// failing computation all see its error (singleflight), while callers
// arriving after it resolved start a fresh computation.
func TestErrorSharedByFlight(t *testing.T) {
	c := New[int, int](0)
	var calls atomic.Int64
	boom := fmt.Errorf("flight failure")
	release := make(chan struct{})
	started := make(chan struct{})
	// The first flight blocks until released, then fails; any retry
	// flight (a caller that arrived after the failure was forgotten)
	// succeeds — both outcomes are legal for a given waiter, and the
	// assertions below accept exactly those two.
	fn := func() (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return 0, boom
		}
		return 5, nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	vals := make([]int, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g], errs[g] = c.Do(1, fn)
		}(g)
	}
	<-started
	close(release)
	wg.Wait()
	sawBoom := 0
	for g, err := range errs {
		switch {
		case err == boom:
			sawBoom++
		case err == nil && vals[g] == 5: // late arrival, successful retry
		default:
			t.Errorf("waiter %d: got (%d, %v), want the flight's error or a retried 5", g, vals[g], err)
		}
	}
	if sawBoom == 0 {
		t.Error("no waiter observed the failing flight's error")
	}
	// Post-flight lookup never sees the stale error.
	v, err := c.Do(1, fn)
	if err != nil || v != 5 {
		t.Fatalf("post-flight: got (%d, %v), want (5, nil)", v, err)
	}
}

// TestPanicNotCached checks that a panicking computation does not leave
// its key cached as (zero, nil): the goroutine that ran fn still panics,
// callers waiting on the flight get an error, and the next lookup runs
// a fresh computation.
func TestPanicNotCached(t *testing.T) {
	c := New[string, int](0)
	release := make(chan struct{})
	started := make(chan struct{})
	boom := func() (int, error) {
		close(started)
		<-release
		panic("boom")
	}
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do("k", boom)
	}()
	<-started
	// The waiter either joins the panicking flight (and gets its error)
	// or arrives after the entry was dropped (and computes 2 itself).
	waiter := make(chan error)
	go func() {
		v, err := c.Do("k", func() (int, error) { return 2, nil })
		if err == nil && v != 2 {
			err = fmt.Errorf("got (%d, nil) from a retry, want 2", v)
		}
		waiter <- err
	}()
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("the goroutine that ran fn recovered %v, want boom", r)
	}
	if err := <-waiter; err != nil && !strings.Contains(err.Error(), "panicked: boom") {
		t.Errorf("waiter: %v, want the panic as an error or a retried 2", err)
	}

	c2 := New[string, int](0)
	func() {
		defer func() { _ = recover() }()
		c2.Do("k", func() (int, error) { panic("boom") })
	}()
	if got := c2.Stats().Entries; got != 0 {
		t.Fatalf("after a panic: %d entries resident, want 0", got)
	}
	v, err := c2.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("after a panic: got (%d, %v), want (7, nil) from a fresh computation", v, err)
	}
}

// TestHitDoesNotAllocate pins the cost of a cached lookup.
func TestHitDoesNotAllocate(t *testing.T) {
	c := New[int, int](0)
	fn := func() (int, error) { return 1, nil }
	c.Do(1, fn)
	if n := testing.AllocsPerRun(100, func() { c.Do(1, fn) }); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
}

// TestLRUEviction checks the bound: inserting past the limit evicts
// the least-recently-used key, a re-lookup of an evicted key recomputes
// (and re-caches) it, and recently-touched keys survive.
func TestLRUEviction(t *testing.T) {
	c := New[int, int](3)
	compute := func(k int) func() (int, error) {
		return func() (int, error) { return k * 10, nil }
	}
	for k := 0; k < 3; k++ {
		if v, _ := c.Do(k, compute(k)); v != k*10 {
			t.Fatalf("do(%d) = %d", k, v)
		}
	}
	// Touch 0 so 1 becomes the LRU, then insert 3 to force an eviction.
	c.Do(0, compute(0))
	c.Do(3, compute(3))
	if got := c.Stats().Entries; got != 3 {
		t.Fatalf("%d entries resident, want 3", got)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// 0, 2, 3 are resident; 1 was evicted and recomputes.
	recomputed := false
	v, _ := c.Do(1, func() (int, error) { recomputed = true; return 10, nil })
	if !recomputed || v != 10 {
		t.Fatalf("evicted key: recomputed=%v v=%d, want true 10", recomputed, v)
	}
	// 0 survived its touch (the insert of 3 evicted 1, not 0)... but the
	// re-insert of 1 just evicted the then-LRU 2. Check 0 is still cached.
	c.Do(0, func() (int, error) { t.Error("recently-used key was evicted"); return 0, nil })
}

// TestEvictionUnderConcurrency hammers a tiny-limit cache from many
// goroutines over a keyspace far larger than the bound — constant
// eviction churn, interleaved with singleflight joins — and checks every
// returned value is the key's pure function. Run under -race this is
// the eviction-path data-race gate.
func TestEvictionUnderConcurrency(t *testing.T) {
	c := New[int, int](4)
	const goroutines = 16
	const lookups = 400
	const keyspace = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				k := (g*7 + i) % keyspace
				v, err := c.Do(k, func() (int, error) { return k * k, nil })
				if err != nil {
					t.Errorf("do(%d): %v", k, err)
					return
				}
				if v != k*k {
					t.Errorf("do(%d) = %d, want %d", k, v, k*k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Stats().Entries; got > 4 {
		t.Errorf("%d entries resident, limit 4", got)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions under a keyspace 8x the limit")
	}
	if st.Hits+st.Misses != goroutines*lookups {
		t.Errorf("hits+misses = %d, want %d lookups", st.Hits+st.Misses, goroutines*lookups)
	}
}

// TestStatsAdd checks snapshots accumulate field by field (the dist and
// serve stats surfaces sum several caches this way).
func TestStatsAdd(t *testing.T) {
	s := Stats{Hits: 1, Misses: 2, Evictions: 3, Entries: 4}
	s.Add(Stats{Hits: 10, Misses: 20, Evictions: 30, Entries: 40})
	if want := (Stats{Hits: 11, Misses: 22, Evictions: 33, Entries: 44}); s != want {
		t.Errorf("sum = %+v, want %+v", s, want)
	}
}

// TestNaNKeyUncached: a key that is not equal to itself can never be
// found or deleted, so Do must run fn for it directly instead of growing
// the map past its limit (where the eviction loop, unable to shrink it,
// used to walk off the LRU ring while holding the lock). The work runs
// under a deadline so a regression fails instead of hanging the suite.
func TestNaNKeyUncached(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := New[float64, int](2)
		for i := 1; i <= 3; i++ {
			v, err := c.Do(math.NaN(), func() (int, error) { return i, nil })
			if v != i || err != nil {
				t.Errorf("NaN call %d = %d, %v; want %d, nil", i, v, err, i)
			}
		}
		if st := c.Stats(); st != (Stats{}) {
			t.Errorf("NaN keys touched the cache: %+v", st)
		}
		type key struct {
			name string
			x    float64
		}
		s := New[key, int](2)
		calls := 0
		for i := 0; i < 3; i++ {
			s.Do(key{"a", math.NaN()}, func() (int, error) { calls++; return 0, nil })
		}
		if calls != 3 {
			t.Errorf("NaN-field struct key computed %d times, want 3 (never cached)", calls)
		}
		if st := s.Stats(); st != (Stats{}) {
			t.Errorf("NaN-field struct keys touched the cache: %+v", st)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do on NaN keys did not return within 5s")
	}
}
