package solve

import (
	"math"
	"testing"
	"testing/quick"
)

func groupSums(w []float64, cuts []int) []float64 {
	rs := Ranges(cuts, len(w))
	out := make([]float64, len(rs))
	for i, r := range rs {
		for j := r[0]; j < r[1]; j++ {
			out[i] += w[j]
		}
	}
	return out
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func TestRanges(t *testing.T) {
	rs := Ranges([]int{2, 5}, 8)
	want := [][2]int{{0, 2}, {2, 5}, {5, 8}}
	if len(rs) != len(want) {
		t.Fatalf("ranges = %v", rs)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("range %d = %v, want %v", i, rs[i], want[i])
		}
	}
	if got := Ranges(nil, 4); len(got) != 1 || got[0] != [2]int{0, 4} {
		t.Errorf("no cuts: %v", got)
	}
}

func TestBalancedPartitionUniform(t *testing.T) {
	w := []float64{1, 1, 1, 1, 1, 1}
	cuts, err := BalancedPartition(w, 3)
	if err != nil {
		t.Fatalf("BalancedPartition: %v", err)
	}
	sums := groupSums(w, cuts)
	if len(sums) != 3 {
		t.Fatalf("groups = %v", sums)
	}
	if maxOf(sums) != 2 {
		t.Errorf("max group = %v, want 2 (perfectly balanced)", maxOf(sums))
	}
}

func TestBalancedPartitionSkewed(t *testing.T) {
	// One huge item: it must sit alone and others group together.
	w := []float64{1, 1, 10, 1, 1}
	cuts, err := BalancedPartition(w, 3)
	if err != nil {
		t.Fatalf("BalancedPartition: %v", err)
	}
	sums := groupSums(w, cuts)
	if maxOf(sums) != 10 {
		t.Errorf("max group = %v, want 10 (the unavoidable singleton)", maxOf(sums))
	}
}

func TestBalancedPartitionExactK(t *testing.T) {
	w := []float64{5, 1, 1, 1, 1, 1}
	for k := 1; k <= len(w); k++ {
		cuts, err := BalancedPartition(w, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(cuts) != k-1 {
			t.Errorf("k=%d: %d cuts, want %d", k, len(cuts), k-1)
		}
		if !sortedStrict(cuts, len(w)) {
			t.Errorf("k=%d: invalid cuts %v", k, cuts)
		}
	}
}

func sortedStrict(cuts []int, n int) bool {
	prev := 0
	for _, c := range cuts {
		if c <= prev || c >= n {
			return false
		}
		prev = c
	}
	return true
}

func TestBalancedPartitionErrors(t *testing.T) {
	if _, err := BalancedPartition([]float64{1, 2}, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := BalancedPartition([]float64{1, 2}, 3); err == nil {
		t.Error("k>n should error")
	}
	if _, err := BalancedPartition([]float64{1, -2, 1}, 2); err == nil {
		t.Error("negative weight should error")
	}
	for _, w := range [][]float64{
		{1, math.NaN(), 1},
		{1, math.Inf(1), 1},
		{math.Inf(-1), 1},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		if _, err := NewPartitioner(w); err == nil {
			t.Errorf("weights %v should error", w)
		}
	}
}

func TestHillClimbFindsBalance(t *testing.T) {
	// Objective: imbalance of group sums. Start from a bad cut.
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	eval := func(cuts []int) float64 { return maxOf(groupSums(w, cuts)) }
	got := HillClimb([]int{1}, len(w), eval, 10)
	if eval(got) != 4 {
		t.Errorf("hill climb result %v has max group %v, want 4", got, eval(got))
	}
}

func TestHillClimbNoCutsNoop(t *testing.T) {
	got := HillClimb(nil, 5, func([]int) float64 { return 0 }, 5)
	if len(got) != 0 {
		t.Errorf("no cuts should remain no cuts, got %v", got)
	}
}

func TestHillClimbNeverWorsens(t *testing.T) {
	w := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	eval := func(cuts []int) float64 { return maxOf(groupSums(w, cuts)) }
	start := []int{2, 4}
	before := eval(start)
	after := eval(HillClimb(start, len(w), eval, 8))
	if after > before {
		t.Errorf("hill climb worsened: %v -> %v", before, after)
	}
}

func TestACOBoundariesMatchesBalanced(t *testing.T) {
	w := []float64{2, 2, 2, 2, 2, 2}
	eval := func(cuts []int) float64 { return maxOf(groupSums(w, cuts)) }
	cuts, err := ACOBoundaries(len(w), 3, eval, 11)
	if err != nil {
		t.Fatalf("ACOBoundaries: %v", err)
	}
	if eval(cuts) != 4 {
		t.Errorf("ACO cuts %v give max group %v, want 4", cuts, eval(cuts))
	}
}

func TestACOBoundariesSingleBlock(t *testing.T) {
	cuts, err := ACOBoundaries(5, 1, func([]int) float64 { return 0 }, 1)
	if err != nil || cuts != nil {
		t.Errorf("k=1 should return no cuts, got %v, %v", cuts, err)
	}
}

func TestACOBoundariesKTooLarge(t *testing.T) {
	if _, err := ACOBoundaries(3, 5, func([]int) float64 { return 0 }, 1); err == nil {
		t.Error("k>n should error")
	}
}

// Property: BalancedPartition's max group sum is within 2x of the ideal
// lower bound max(total/k, max item) for arbitrary inputs.
func TestBalancedPartitionQuality(t *testing.T) {
	f := func(raw []uint8, kk uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		w := make([]float64, len(raw))
		var total, maxw float64
		for i, r := range raw {
			w[i] = float64(r%9) + 1
			total += w[i]
			if w[i] > maxw {
				maxw = w[i]
			}
		}
		k := int(kk)%len(w) + 1
		cuts, err := BalancedPartition(w, k)
		if err != nil {
			return false
		}
		got := maxOf(groupSums(w, cuts))
		lower := math.Max(total/float64(k), maxw)
		return got <= 2*lower+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cuts are always valid (strictly increasing, in range) and the
// ranges cover all items exactly once.
func TestPartitionCoverage(t *testing.T) {
	f := func(raw []uint8, kk uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		w := make([]float64, len(raw))
		for i, r := range raw {
			w[i] = float64(r % 5)
		}
		k := int(kk)%len(w) + 1
		cuts, err := BalancedPartition(w, k)
		if err != nil {
			return false
		}
		if !sortedStrict(cuts, len(w)) && len(cuts) > 0 {
			return false
		}
		covered := 0
		for _, r := range Ranges(cuts, len(w)) {
			if r[0] > r[1] {
				return false
			}
			covered += r[1] - r[0]
		}
		return covered == len(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
