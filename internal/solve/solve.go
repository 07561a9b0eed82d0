// Package solve provides the search algorithms behind KARMA's two-tier
// optimization (paper Fig. 4): contiguous partitioning of the layer chain
// into blocks (Opt-1) and boundary refinement against a caller-supplied
// objective. The objective is evaluated by the planner (internal/karma)
// using the occupancy model or the full pipeline simulator; this package
// is policy-free search machinery.
//
// Two backends are provided: a deterministic balanced-partition +
// hill-climbing search (default), and the ant-colony mixed-integer
// optimizer (internal/aco) standing in for the paper's MIDACO solver.
package solve

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"karma/internal/aco"
)

// Ranges converts k-1 sorted cut positions over n items into k
// half-open [start, end) ranges. A cut at position c starts a new range
// at index c.
func Ranges(cuts []int, n int) [][2]int {
	out := make([][2]int, 0, len(cuts)+1)
	start := 0
	for _, c := range cuts {
		out = append(out, [2]int{start, c})
		start = c
	}
	out = append(out, [2]int{start, n})
	return out
}

// validCuts reports whether cuts are strictly increasing within (0, n).
func validCuts(cuts []int, n int) bool {
	prev := 0
	for _, c := range cuts {
		if c <= prev || c >= n {
			return false
		}
		prev = c
	}
	return true
}

// BalancedPartition returns the cut positions splitting the n weights
// into k contiguous groups minimizing the maximum group sum (the classic
// linear-partition problem, solved by parametric search). Weights must be
// finite and non-negative. It returns k-1 cuts; k must be in [1, n].
func BalancedPartition(w []float64, k int) ([]int, error) {
	pt, err := NewPartitioner(w)
	if err != nil {
		return nil, err
	}
	return pt.Cuts(k)
}

// Partitioner answers BalancedPartition queries for many group counts
// over one weight slice. The parametric search for each k probes the
// greedy group count at 60 caps; a sweep over many k (the checkpoint
// run-count scan, the KARMA Opt-1 enumeration) probes thousands.
//
// Each greedy scan at cap c compares its running sums s with c once
// each: s > c breaks a group, s <= c extends it. Every cap in
// [max extending s, min breaking s) makes the same comparisons come out
// the same way, so the scan takes the same path and yields the same
// count there. The Partitioner records that half-open span per scan, in
// a slice sorted by position (spans of different paths are disjoint).
// The count never grows with the cap — also in float arithmetic, since
// the weights are finite and non-negative and rounding is monotone — so
// the spans bracket each bisection before it starts: every cap below
// the end of the last span needing more than k groups needs more than
// k, and every cap from the start of the first span needing at most k
// on needs at most k. A probe outside the bracket takes that answer; a
// probe inside scans the chain, records its span and narrows the
// bracket to it. Every probe therefore gets the answer a fresh scan
// would give, and cut positions are bit-identical to a scan per probe.
//
// Once the spans are warm, a call costs O(n + k log k) — the cut
// emission pass and the heap-ordered leftover split — plus one walk
// over each group the split divides.
type Partitioner struct {
	w           []float64
	total, maxw float64
	spans       []span  // sorted, disjoint, counts non-increasing
	heap        []group // scratch: the splittable groups of the leftover split
	marks       []bool  // scratch: the cut positions of the leftover split
}

// span is the cap interval [lo, hi) over which the greedy scan takes one
// path and needs count groups.
type span struct {
	lo, hi float64
	count  int
}

type group struct {
	start, end int
	sum        float64
}

// NewPartitioner validates the weights (which must be finite and
// non-negative, with a finite sum) and returns a Partitioner over them.
// The caller must not mutate w.
func NewPartitioner(w []float64) (*Partitioner, error) {
	pt := &Partitioner{w: w}
	for _, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("solve: invalid weight %v", v)
		}
		pt.total += v
		if v > pt.maxw {
			pt.maxw = v
		}
	}
	if math.IsInf(pt.total, 1) {
		return nil, fmt.Errorf("solve: weight sum overflows")
	}
	return pt, nil
}

// scan runs the greedy split at cap and returns the span of caps over
// which it takes the same path, with the number of groups it needs.
func (pt *Partitioner) scan(cap float64) span {
	groups, sum := 1, 0.0
	lo, hi := math.Inf(-1), math.Inf(1)
	for _, v := range pt.w {
		if s := sum + v; s > cap {
			groups++
			sum = v
			if s < hi {
				hi = s
			}
		} else {
			sum = s
			if s > lo {
				lo = s
			}
		}
	}
	return span{lo, hi, groups}
}

// Cuts returns the k-1 cut positions of the balanced k-way partition;
// k must be in [1, n]. The result is freshly allocated and safe to
// retain; transient callers should prefer AppendCuts.
func (pt *Partitioner) Cuts(k int) ([]int, error) {
	return pt.AppendCuts(nil, k)
}

// AppendCuts appends the k-1 cut positions of the balanced k-way
// partition to dst and returns the extended slice, so probe loops that
// only inspect the cuts can reuse one buffer across many k.
func (pt *Partitioner) AppendCuts(dst []int, k int) ([]int, error) {
	w := pt.w
	n := len(w)
	if k < 1 || k > n {
		return nil, fmt.Errorf("solve: k=%d out of range [1,%d]", k, n)
	}
	// Binary search the smallest cap for which a greedy split needs <= k
	// groups. spans[j] is the first span needing at most k: caps below
	// the end of spans[j-1] need more, and caps from the start of
	// spans[j] on (from total on, as no running sum exceeds the full
	// left-to-right sum) need at most k. A probe between them scans, and
	// its span goes in at j, between the two.
	spans := pt.spans
	j := sort.Search(len(spans), func(h int) bool { return spans[h].count <= k })
	below, atOrAbove := math.Inf(-1), pt.total
	if j > 0 {
		below = spans[j-1].hi
	}
	if j < len(spans) {
		atOrAbove = spans[j].lo
	}
	lo, hi := pt.maxw, pt.total
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		switch {
		case mid >= atOrAbove:
			hi = mid
		case mid < below:
			lo = mid
		default:
			s := pt.scan(mid)
			spans = slices.Insert(spans, j, s)
			if s.count <= k {
				hi, atOrAbove = mid, s.lo
			} else {
				lo, below = mid, s.hi
				j++
			}
		}
	}
	pt.spans = spans
	// Emit cuts for cap=hi, then spread any leftover group budget by
	// splitting the largest remaining groups to reach exactly k.
	base := len(dst)
	cuts := dst
	sum := 0.0
	for i, v := range w {
		if sum+v > hi && i > 0 {
			cuts = append(cuts, i)
			sum = v
		} else {
			sum += v
		}
	}
	if len(cuts)-base == k-1 {
		return cuts, nil
	}
	return pt.split(cuts, base, k), nil
}

// split grows the greedy groups cut at cuts[base:] to exactly k by
// splitting, one at a time, the splittable group with the largest sum
// (the leftmost on ties) at its weighted midpoint, and returns the cuts
// in position order. A group's sum is computed fresh left to right when
// it is created, the same additions in the same order as a rescan, so
// the cut positions are bit-identical to recomputing every sum per
// split. The splittable groups wait in a heap and the cut positions in
// a mark per position, so a split costs O(log k) plus a walk over its
// group. As k <= n, a splittable group remains while there are fewer
// than k groups.
func (pt *Partitioner) split(cuts []int, base, k int) []int {
	w := pt.w
	n := len(w)
	sumOf := func(a, b int) float64 {
		s := 0.0
		for j := a; j < b; j++ {
			s += w[j]
		}
		return s
	}
	if pt.marks == nil {
		pt.marks = make([]bool, n)
	}
	marks := pt.marks
	h := pt.heap[:0]
	start := 0
	for i := base; i <= len(cuts); i++ {
		end := n
		if i < len(cuts) {
			end = cuts[i]
			marks[end] = true
		}
		if end-start >= 2 {
			h = append(h, group{start, end, sumOf(start, end)})
		}
		start = end
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for groups := len(cuts) - base + 1; groups < k; groups++ {
		g := h[0]
		half, s := g.start+1, w[g.start]
		for half < g.end-1 && s < g.sum/2 {
			s += w[half]
			half++
		}
		marks[half] = true
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h, 0)
		for _, c := range [2]group{{g.start, half, 0}, {half, g.end, 0}} {
			if c.end-c.start >= 2 {
				c.sum = sumOf(c.start, c.end)
				h = siftUp(append(h, c))
			}
		}
	}
	pt.heap = h
	cuts = cuts[:base]
	for i, m := range marks {
		if m {
			cuts = append(cuts, i)
			marks[i] = false
		}
	}
	return cuts
}

// splitsBefore reports whether group a is split before group b: the
// larger sum first, the leftmost on ties — the group a left-to-right
// scan for the first strictly largest sum picks.
func splitsBefore(a, b group) bool {
	return a.sum > b.sum || a.sum == b.sum && a.start < b.start
}

// siftDown restores the heap order of h below position i.
func siftDown(h []group, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && splitsBefore(h[c+1], h[c]) {
			c++
		}
		if !splitsBefore(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// siftUp restores the heap order of h after an append and returns h.
func siftUp(h []group) []group {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !splitsBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// HillClimb locally refines cut positions against eval (lower is better).
// Each pass tries moving every cut by ±step for decreasing steps; the
// best strictly-improving move is taken. Search is deterministic.
func HillClimb(cuts []int, n int, eval func([]int) float64, passes int) []int {
	if len(cuts) == 0 || passes <= 0 {
		return cuts
	}
	best := append([]int(nil), cuts...)
	bestV := eval(best)
	// One candidate buffer serves every probe; improvements copy back
	// into best instead of stealing the slice.
	cand := make([]int, len(best))
	steps := []int{8, 4, 2, 1}
	for p := 0; p < passes; p++ {
		improved := false
		for _, step := range steps {
			for i := range best {
				for _, d := range []int{-step, step} {
					copy(cand, best)
					cand[i] += d
					sort.Ints(cand)
					if !validCuts(cand, n) {
						continue
					}
					if v := eval(cand); v < bestV {
						copy(best, cand)
						bestV = v
						improved = true
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// ACOBoundaries searches k-1 cut positions over n items with the
// ant-colony optimizer (the MIDACO stand-in). Candidate cut vectors are
// sorted and deduplicated before evaluation; invalid vectors are
// infeasible. Lower eval is better.
func ACOBoundaries(n, k int, eval func([]int) float64, seed int64) ([]int, error) {
	if k < 2 {
		return nil, nil // a single block has no cuts
	}
	if k > n {
		return nil, fmt.Errorf("solve: k=%d exceeds n=%d", k, n)
	}
	dim := k - 1
	lower := make([]int, dim)
	upper := make([]int, dim)
	for i := range lower {
		lower[i] = 1
		upper[i] = n - 1
	}
	// canon copies into one reusable scratch slice: the solver never
	// retains the canonical form, and the final result is copied out.
	scratch := make([]int, dim)
	canon := func(x []int) ([]int, bool) {
		c := scratch[:len(x)]
		copy(c, x)
		sort.Ints(c)
		return c, validCuts(c, n)
	}
	res, err := aco.Minimize(aco.Problem{
		Lower: lower,
		Upper: upper,
		Objective: func(x []int) float64 {
			c, _ := canon(x)
			return eval(c)
		},
		Feasible: func(x []int) bool {
			_, ok := canon(x)
			return ok
		},
	}, aco.Options{Seed: seed, Iterations: 120, Ants: 20})
	if err != nil {
		return nil, err
	}
	c, _ := canon(res.X)
	return append([]int(nil), c...), nil
}
