package memo

import (
	"runtime"
	"sync"
)

// Pool is a bounded LIFO free list of reusable values, the scratch-reuse
// counterpart of Cache. Unlike sync.Pool, a garbage collection does not
// empty it: the planner's scratches keep their grown arenas however
// often the collector runs, which is the point of pooling them (the
// single-GPU planner runs a GC every few plans, so a list the collector
// empties would have every arena regrown that often).
//
// The price is that a pooled value stays reachable until it is taken
// again. The bound caps that: a Pool keeps at most GOMAXPROCS values
// (read when NewPool runs), one per goroutine that can run at once, so a
// steady-state caller always finds one and a burst of concurrent callers
// leaves no more behind than could have used them together. Values Put
// beyond the bound are dropped for the collector.
//
// Get returns the value Put most recently, whose arenas are the most
// likely to be warm. A Pool is safe for concurrent use.
type Pool[T any] struct {
	mu    sync.Mutex
	free  []T
	limit int
	new   func() T
}

// NewPool returns an empty pool whose Get calls newFn when no value is
// free.
func NewPool[T any](newFn func() T) *Pool[T] {
	return &Pool[T]{limit: runtime.GOMAXPROCS(0), new: newFn}
}

// Get removes and returns the most recently Put value, or a new one.
func (p *Pool[T]) Get() T {
	p.mu.Lock()
	if last := len(p.free) - 1; last >= 0 {
		v := p.free[last]
		var zero T
		p.free[last] = zero
		p.free = p.free[:last]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return p.new()
}

// Put hands v back for a later Get, or drops it when the pool already
// holds its bound. The caller must not use v afterwards.
func (p *Pool[T]) Put(v T) {
	p.mu.Lock()
	if len(p.free) < p.limit {
		p.free = append(p.free, v)
	}
	p.mu.Unlock()
}
