// Package sweep is the bounded worker pool behind the dense experiment
// sweeps (Fig. 8 grids, Table IV/V ladders, the topology panel): grid
// points fan out across at most `workers` goroutines while every result
// lands at its own index, so a parallel sweep renders byte-identical to
// the serial one. The grid points themselves are pure functions of
// their inputs (detcheck keeps the model packages free of wall-clock
// and global randomness), which is what makes "deterministic ordering"
// sufficient for bit-exact output: no number depends on completion
// order, only on the index it lands at.
//
// The pool is per-call, not global: nested sweeps (a panel fanning out
// rows whose ZeRO cell fans out MP degrees) multiply their bounds
// rather than deadlocking on a shared pool. Jobs are CPU-bound model
// evaluations, so the Go scheduler multiplexes any transient
// oversubscription harmlessly.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: n >= 1 is taken as given,
// anything else (0, negative) means one worker per CPU. Callers thread
// the resolved count through flags and options so that 0 stays "auto"
// end to end.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// Do runs jobs 0..n-1 across at most workers goroutines (resolved by
// Workers) and returns the first error in index order — not completion
// order — so a failing sweep reports the same error no matter how the
// pool interleaved. With one worker the jobs run inline in index order
// and stop at the first error, exactly the serial loop it replaces.
//
// A job that panics does not take the process down: the panic is
// recovered and becomes that job's error (carrying the panic value and
// the goroutine's stack), ordered by index like any other error.
//
// Jobs communicate results by writing to distinct indices of
// caller-owned slices; Do's completion (one sync.WaitGroup barrier)
// orders those writes before Do returns.
func Do(workers, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := run(job, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(job, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run calls job(i), turning a panic into an error.
func run(job func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sweep: job %d panicked: %v\n%s", i, v, debug.Stack())
		}
	}()
	return job(i)
}

// Map runs f over 0..n-1 with Do's pool and ordering guarantees and
// collects the results by index. On error the slice is nil.
func Map[T any](workers, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(workers, n, func(i int) error {
		v, err := f(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
