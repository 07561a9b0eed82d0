package main

import (
	"fmt"
	"math"
	"sort"
)

// standardPercentiles are the percentiles a tail metric may report,
// highest first.
var standardPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples a tail percentile needs strictly
// above its rank before it is reported.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples ranked above percentile p.
func beyond(p float64, n int) int { return n - rank(p, n) }

// highestTail returns the highest standard percentile with at least
// minBeyond samples above it among n samples, and false when even the
// median lacks them.
func highestTail(n int) (float64, bool) {
	for _, p := range standardPercentiles {
		if beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile p of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// tail returns percentile want of xs when the ≥minBeyond rule allows it;
// otherwise the highest percentile that the rule allows, so a short run
// never reports a tail it has no samples for. The percentile actually
// used is returned next to the value.
func tail(xs []float64, want float64) (value, used float64, err error) {
	p, ok := highestTail(len(xs))
	if !ok {
		return 0, 0, fmt.Errorf("%d samples: no percentile has %d samples beyond it", len(xs), minBeyond)
	}
	if p > want {
		p = want
	}
	return percentile(xs, p), p, nil
}

// median of xs (the mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
