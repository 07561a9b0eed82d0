// Package memo is the one cache implementation of the repository: a
// bounded, singleflight-style concurrent LRU. The evaluator memos of
// internal/dist (interned graphs, shard builds, profiles, partition
// searches) and the response cache of karma-serve are all instances of
// Cache. Its companion Pool is the one scratch free list: plan's
// Scratch, karma's search state and dist's plan scratch are reused
// through it.
package memo

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPanicked wraps the error the waiters of a flight whose computation
// panicked receive.
var ErrPanicked = errors.New("memo: computation panicked")

// defaultLimit is the entry bound a zero Cache gets. It is set far above
// the distinct-key count of any batch sweep (a full Fig. 8 + Table IV/V
// + topology run touches a few hundred keys), so the CLI sweeps never
// see an eviction, while a long-running daemon serving request-derived
// keys stays bounded instead of growing for the life of the process.
const defaultLimit = 8192

// Cache is a bounded, singleflight-style concurrent cache: the first
// caller of a key computes it while concurrent callers of the same key
// block on that one computation, and distinct keys compute in parallel —
// the property the parallel sweep engine needs from the shared evaluator
// caches (one mutex around the compute would serialize every worker; no
// dedup would compute each shared grid-point profile once per worker).
//
// Two properties make the cache safe to hold for the life of a daemon
// process (karma-serve), where keys derive from client requests:
//
//   - Entries are bounded by an LRU policy: inserting a fresh key beyond
//     the bound evicts the least-recently-used entry. Every cached
//     computation must be a pure function of its key, so eviction can
//     never change a result — a re-computed entry is bit-identical to
//     the evicted one — it only trades memory for recompute time.
//   - Errors are never retained: a computation that fails (or panics)
//     is removed as soon as its error is observed, so the next lookup of
//     that key retries instead of serving a stale failure forever.
//     Callers that were already blocked on the failing flight share its
//     error (that is the singleflight contract); callers arriving after
//     it resolved start a fresh computation.
//
// The zero Cache is ready to use and bounded by defaultLimit.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	// limit bounds the entry count; <= 0 means defaultLimit.
	limit int
	m     map[K]*entry[K, V]
	// Intrusive doubly-linked LRU ring threaded through the entries;
	// root.next is the most recently used, root.prev the eviction
	// candidate. The sentinel root means link surgery has no nil cases.
	root entry[K, V]
	// Counters for the /stats surface of karma-serve (read via Stats).
	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key        K
	once       sync.Once
	v          V
	err        error
	prev, next *entry[K, V]
}

// New returns an empty cache bounded to limit entries (<= 0 means
// defaultLimit).
func New[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: limit}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Do returns the cached value for k, computing it with fn exactly once
// across all concurrent callers. A nil error caches the value (until
// LRU eviction); a non-nil error is propagated to every caller of the
// in-flight computation and then forgotten, so later callers retry. A
// panic in fn is treated as a failure: the callers waiting on the flight
// get it as an error, and the caller that ran fn panics with it.
//
// A key that is not equal to itself (a float holding NaN, or a struct
// with such a field) could never be found again nor deleted from the
// map, so Do runs fn for it directly: no entry, no counters.
func (c *Cache[K, V]) Do(k K, fn func() (V, error)) (V, error) {
	if k != k {
		return fn()
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[K]*entry[K, V]{}
		c.root.prev = &c.root
		c.root.next = &c.root
	}
	e := c.m[k]
	if e != nil {
		c.hits++
		c.unlink(e)
		c.pushFront(e)
	} else {
		c.misses++
		e = &entry[K, V]{key: k}
		c.m[k] = e
		c.pushFront(e)
		limit := c.limit
		if limit <= 0 {
			limit = defaultLimit
		}
		// Evicting an entry whose computation is still in flight is
		// harmless: its waiters hold the entry pointer and complete on
		// it; the entry is merely no longer findable, exactly as if it
		// had been evicted the moment it resolved.
		for len(c.m) > limit {
			old := c.root.prev
			c.unlink(old)
			delete(c.m, old.key)
			c.evictions++
		}
	}
	c.mu.Unlock()

	e.once.Do(func() {
		// sync.Once counts a panicking fn as done, so without this the
		// key would stay cached as (zero, nil). The waiters get the panic
		// as the flight's error; the goroutine that ran fn re-panics from
		// inside the deferred call, so its trace keeps fn's frames.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("%w: %v", ErrPanicked, r)
				c.forget(k, e)
				panic(r)
			}
		}()
		e.v, e.err = fn()
	})
	if e.err != nil {
		c.forget(k, e)
	}
	return e.v, e.err
}

// forget drops a failed flight so the next Do(k) retries. It guards on
// identity: the slot may already hold a fresh retry entry (or the failed
// one may have been evicted), which must not be dropped.
func (c *Cache[K, V]) forget(k K, e *entry[K, V]) {
	c.mu.Lock()
	if c.m[k] == e {
		c.unlink(e)
		delete(c.m, k)
	}
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache's counters and size.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.m),
	}
}

// Stats is a point-in-time snapshot of one or more caches, exposed so
// karma-serve's /stats endpoint can report memoization behaviour.
type Stats struct {
	// Hits counts lookups that found an entry (including joins on an
	// in-flight computation).
	Hits uint64
	// Misses counts lookups that started a computation.
	Misses uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Entries is the resident entry count at snapshot time.
	Entries int
}

// Add accumulates another snapshot into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
}
