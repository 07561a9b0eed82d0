package solve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refPartitioner is the reference the span memo is checked against: the
// same bisection and cut emission, with the greedy count memoized only
// per bit-equal cap.
type refPartitioner struct {
	w           []float64
	total, maxw float64
	counts      map[float64]int
}

func newRefPartitioner(w []float64) *refPartitioner {
	r := &refPartitioner{w: w, counts: map[float64]int{}}
	for _, v := range w {
		r.total += v
		if v > r.maxw {
			r.maxw = v
		}
	}
	return r
}

func (r *refPartitioner) count(cap float64) int {
	if g, ok := r.counts[cap]; ok {
		return g
	}
	g := greedyCount(r.w, cap)
	r.counts[cap] = g
	return g
}

// greedyCount is the plain greedy scan: the number of groups a
// left-to-right split needs when no group may exceed cap.
func greedyCount(w []float64, cap float64) int {
	groups, sum := 1, 0.0
	for _, v := range w {
		if sum+v > cap {
			groups++
			sum = v
		} else {
			sum += v
		}
	}
	return groups
}

func (r *refPartitioner) cuts(k int) ([]int, error) {
	w := r.w
	n := len(w)
	if k < 1 || k > n {
		return nil, fmt.Errorf("k=%d out of range [1,%d]", k, n)
	}
	lo, hi := r.maxw, r.total
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if r.count(mid) <= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	var cuts []int
	sum := 0.0
	for i, v := range w {
		if sum+v > hi && i > 0 {
			cuts = append(cuts, i)
			sum = v
		} else {
			sum += v
		}
	}
	if len(cuts) == k-1 {
		return cuts, nil
	}
	sumOf := func(a, b int) float64 {
		s := 0.0
		for j := a; j < b; j++ {
			s += w[j]
		}
		return s
	}
	var groups []group
	start := 0
	for _, c := range cuts {
		groups = append(groups, group{start, c, sumOf(start, c)})
		start = c
	}
	groups = append(groups, group{start, n, sumOf(start, n)})
	for len(groups) < k {
		bi, bsum := -1, -1.0
		for i, g := range groups {
			if g.end-g.start >= 2 && g.sum > bsum {
				bsum, bi = g.sum, i
			}
		}
		if bi < 0 {
			return nil, fmt.Errorf("cannot split %d items into %d groups", n, k)
		}
		g := groups[bi]
		half, s := g.start+1, w[g.start]
		for half < g.end-1 && s < bsum/2 {
			s += w[half]
			half++
		}
		groups = append(groups, group{})
		copy(groups[bi+1:], groups[bi:])
		groups[bi] = group{g.start, half, sumOf(g.start, half)}
		groups[bi+1] = group{half, g.end, sumOf(half, g.end)}
	}
	cuts = cuts[:0]
	for _, g := range groups[1:] {
		cuts = append(cuts, g.start)
	}
	return cuts, nil
}

// randWeights draws n weights of one of several shapes: small integers
// with zeros and ties, one repeated value, powers of two, and mantissas
// spread over magnitudes 1 to 2^40 with some zeros.
func randWeights(r *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	kind := r.Intn(5)
	same := float64(r.Intn(9) + 1)
	for i := range w {
		switch kind {
		case 0:
			w[i] = float64(r.Intn(10))
		case 1:
			w[i] = same
		case 2:
			w[i] = math.Ldexp(1, r.Intn(41))
		case 3:
			w[i] = math.Ldexp(1+r.Float64(), r.Intn(40))
		default:
			switch r.Intn(3) {
			case 0:
				w[i] = float64(r.Intn(4))
			case 1:
				w[i] = math.Ldexp(r.Float64(), r.Intn(41))
			}
		}
	}
	return w
}

// checkSpans fails unless the recorded spans are sorted, pairwise
// disjoint and of non-increasing count, each holding its count.
func checkSpans(t *testing.T, pt *Partitioner) {
	t.Helper()
	for i, s := range pt.spans {
		if !(s.lo < s.hi) || (i > 0 && (pt.spans[i-1].hi > s.lo || pt.spans[i-1].count < s.count)) {
			t.Fatalf("spans out of order at %d: %+v", i, pt.spans)
		}
		checkSpan(t, pt.w, s)
	}
}

// checkSpan fails unless a plain greedy scan needs s.count groups at
// both finite ends of s; as the count never grows with the cap, it
// needs that many everywhere between.
func checkSpan(t *testing.T, w []float64, s span) {
	t.Helper()
	if !math.IsInf(s.lo, -1) && greedyCount(w, s.lo) != s.count {
		t.Fatalf("span %+v: scan at its start needs %d groups", s, greedyCount(w, s.lo))
	}
	if last := math.Nextafter(s.hi, math.Inf(-1)); !math.IsInf(s.hi, 1) && greedyCount(w, last) != s.count {
		t.Fatalf("span %+v: scan at its end needs %d groups", s, greedyCount(w, last))
	}
}

// TestPartitionerMatchesBisection pins the bracketed bisection to the
// reference: every k, queried in shuffled order on one Partitioner,
// yields the reference's cuts, and the span a scan reports holds its cap
// and its count, at random caps and at caps exactly equal to sequential
// sub-range sums — the values span endpoints take, which bisection
// probes almost never hit.
func TestPartitionerMatchesBisection(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 17, 40, 64, 160, 400, 1000}
	r := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		// Every size gets the full draws, -short a third of them. The
		// reference's leftover split is quadratic in k, which keeps the
		// longest vectors the bulk of the run time.
		vectors := 12
		if testing.Short() {
			vectors = (vectors + 2) / 3
		}
		for v := 0; v < vectors; v++ {
			w := randWeights(r, n)
			pt, err := NewPartitioner(w)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPartitioner(w)
			for _, k := range r.Perm(n) {
				k++
				got, gerr := pt.Cuts(k)
				want, werr := ref.cuts(k)
				if (gerr != nil) != (werr != nil) || !slices.Equal(got, want) {
					t.Fatalf("n=%d vec %d k=%d: cuts %v (%v), reference %v (%v)", n, v, k, got, gerr, want, werr)
				}
			}
			checkSpans(t, pt)

			// Scanned spans against the plain scan, at shuffled caps.
			var caps []float64
			if n <= 64 {
				for i := 0; i < n; i++ {
					s := 0.0
					for j := i; j < n; j++ {
						s += w[j]
						caps = append(caps, s)
					}
				}
			} else {
				for c := 0; c < 2000; c++ {
					i := r.Intn(n)
					j := i + r.Intn(n-i)
					s := 0.0
					for _, x := range w[i : j+1] {
						s += x
					}
					caps = append(caps, s)
				}
			}
			for i, m := 0, len(caps); i < m; i++ {
				caps = append(caps, math.Nextafter(caps[i], math.Inf(-1)), r.Float64()*ref.total*1.1)
			}
			r.Shuffle(len(caps), func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })
			for _, c := range caps {
				s := pt.scan(c)
				if !(s.lo <= c && c < s.hi) || s.count != greedyCount(w, c) {
					t.Fatalf("n=%d vec %d: scan(%v) = %+v, plain scan needs %d", n, v, c, s, greedyCount(w, c))
				}
				checkSpan(t, w, s)
			}
		}
	}
}

// decodeWeights turns fuzz bytes into at most 256 non-negative weights:
// each byte pair is a mantissa byte (0 gives a zero weight) and a scale
// between 2^-8 and 2^39.
func decodeWeights(data []byte) []float64 {
	if len(data) > 512 {
		data = data[:512]
	}
	w := make([]float64, len(data)/2)
	for i := range w {
		w[i] = math.Ldexp(float64(data[2*i]), int(data[2*i+1]%48)-8)
	}
	return w
}

// FuzzPartitioner checks, for decoded weight vectors, that the cuts equal
// the reference's for every k, and that the greedy count never grows
// with the cap (the property the bisection bracket rests on) and equals
// the count of the span scan reports, which holds the cap.
func FuzzPartitioner(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeWeights(data)
		if len(w) == 0 {
			return
		}
		pt, err := NewPartitioner(w)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefPartitioner(w)
		for k := len(w); k >= 1; k-- {
			got, gerr := pt.Cuts(k)
			want, werr := ref.cuts(k)
			if (gerr != nil) != (werr != nil) || !slices.Equal(got, want) {
				t.Fatalf("k=%d: cuts %v (%v), reference %v (%v)", k, got, gerr, want, werr)
			}
		}
		checkSpans(t, pt)

		caps := []float64{0, ref.maxw, ref.total}
		s := 0.0
		for _, v := range w {
			s += v
			caps = append(caps, s, math.Nextafter(s, math.Inf(-1)), s/2)
		}
		sort.Float64s(caps)
		prev := math.MaxInt
		for _, c := range caps {
			g := greedyCount(w, c)
			if g > prev {
				t.Fatalf("greedy count grows with the cap: %d at %v after %d", g, c, prev)
			}
			prev = g
			if s := pt.scan(c); !(s.lo <= c && c < s.hi) || s.count != g {
				t.Fatalf("scan(%v) = %+v, plain scan needs %d", c, s, g)
			}
		}
	})
}

// BenchmarkPartitioner times the partition search over a seeded
// 160-weight vector, the block count of a Fig. 5 ResNet-1001 profile:
// sweep partitions it into every k in 1..64 on one fresh Partitioner (the
// shape of the KARMA k-enumeration); runs into every k from n-1 down to
// 1 (the checkpoint run-count scan); oneshot is one BalancedPartition
// call per iteration.
func BenchmarkPartitioner(b *testing.B) {
	r := rand.New(rand.NewSource(160))
	w := make([]float64, 160)
	for i := range w {
		w[i] = float64(r.Int63n(1<<26)) + 1
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		var cuts []int
		for i := 0; i < b.N; i++ {
			pt, err := NewPartitioner(w)
			if err != nil {
				b.Fatal(err)
			}
			for k := 1; k <= 64; k++ {
				if cuts, err = pt.AppendCuts(cuts[:0], k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("runs", func(b *testing.B) {
		b.ReportAllocs()
		var cuts []int
		for i := 0; i < b.N; i++ {
			pt, err := NewPartitioner(w)
			if err != nil {
				b.Fatal(err)
			}
			for k := len(w) - 1; k >= 1; k-- {
				if cuts, err = pt.AppendCuts(cuts[:0], k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BalancedPartition(w, 1+i%64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
