package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	ncpu := runtime.NumCPU()
	if got := Workers(0); got != ncpu {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, ncpu)
	}
	if got := Workers(-3); got != ncpu {
		t.Fatalf("Workers(-3) = %d, want NumCPU %d", got, ncpu)
	}
}

func TestDoOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			out := make([]int, n)
			if err := Do(workers, n, func(i int) error {
				out[i] = i * i
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestDoEmpty(t *testing.T) {
	called := false
	if err := Do(8, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("job ran for n=0")
	}
}

// TestDoFirstErrorByIndex pins the determinism of error selection: with
// several failing jobs the reported error is the lowest-index one,
// regardless of worker interleaving.
func TestDoFirstErrorByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			errAt := map[int]bool{3: true, 7: true, 11: true}
			err := Do(workers, 20, func(i int) error {
				if errAt[i] {
					return fmt.Errorf("job %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "job 3 failed" {
				t.Fatalf("err = %v, want job 3's", err)
			}
		})
	}
}

// TestDoSerialEarlyExit pins the serial contract: one worker runs
// inline, in order, and stops at the first error — the exact semantics
// of the loops the pool replaces, so workers=1 is not just bit-identical
// in output but in work performed.
func TestDoSerialEarlyExit(t *testing.T) {
	var ran []int
	err := Do(1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 4 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if len(ran) != 5 {
		t.Fatalf("ran %v, want inline stop after index 4", ran)
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("ran %v, want strict index order", ran)
		}
	}
}

// TestDoBoundedConcurrency checks the pool never runs more than the
// requested number of jobs at once.
func TestDoBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	if err := Do(workers, 64, func(int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		for i := 0; i < 1000; i++ { // spin a little to force overlap
			_ = i
		}
		inFlight.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMap(t *testing.T) {
	out, err := Map(4, 10, func(i int) (string, error) {
		return fmt.Sprintf("v%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := fmt.Sprintf("v%d", i); v != want {
			t.Fatalf("out[%d] = %q, want %q", i, v, want)
		}
	}
	if _, err := Map(4, 10, func(i int) (int, error) {
		if i >= 5 {
			return 0, fmt.Errorf("bad %d", i)
		}
		return i, nil
	}); err == nil || err.Error() != "bad 5" {
		t.Fatalf("err = %v, want bad 5", err)
	}
}

// TestDoContainsPanics: a panicking job becomes the error at its index —
// carrying the panic value and the stack — instead of killing the
// process, and the lowest-index error still wins (a later plain error
// does not mask the panic).
func TestDoContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var ran atomic.Int32
			err := Do(workers, 8, func(i int) error {
				ran.Add(1)
				switch i {
				case 3:
					panic("boom at 3")
				case 5:
					return fmt.Errorf("plain error at 5")
				}
				return nil
			})
			if err == nil {
				t.Fatal("Do swallowed the panic")
			}
			msg := err.Error()
			for _, want := range []string{"job 3 panicked", "boom at 3", "sweep_test.go"} {
				if !strings.Contains(msg, want) {
					t.Errorf("error lacks %q:\n%s", want, msg)
				}
			}
			want := int32(8) // the pool finishes every job
			if workers == 1 {
				want = 4 // the serial loop stops at the first failure
			}
			if got := ran.Load(); got != want {
				t.Errorf("%d jobs ran, want %d", got, want)
			}
		})
	}
}
