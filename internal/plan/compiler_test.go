package plan

import (
	"fmt"
	"testing"

	"karma/internal/race"
	"karma/internal/unit"
)

// allKindsOrder lists every kind in an order Validate accepts within one
// block: receives and gathers before the forward, collectives and sends
// after it, exchanges and updates after the backward.
var allKindsOrder = []Kind{
	Recv, RecvLocal, ParamGather, Fwd, MPAllReduce, MPAllReduceLocal, Send, SendLocal,
	SwapOut, SwapIn, Recompute, Bwd, GradExchange, UpdateGPU, UpdateCPU,
}

// kindsPlan gives each of n blocks one single-op stage per kind in
// kinds, blocks in ascending order.
func kindsPlan(n int, kinds []Kind) *Plan {
	p := &Plan{Name: fmt.Sprintf("kinds-%d", n), NumBlocks: n}
	for b := 0; b < n; b++ {
		for _, k := range kinds {
			p.Stages = append(p.Stages, Stage{Ops: []Op{{Kind: k, Block: b, Duration: 1}}})
		}
	}
	return p
}

// swapRecomputePlan is a KARMA-shaped single-GPU plan over n blocks:
// every third block swaps, every third recomputes, the rest stay
// resident; swap-ins all launch with the first backward stage.
func swapRecomputePlan(n int) *Plan {
	const act = unit.Bytes(8)
	p := &Plan{Name: "swap-recompute", NumBlocks: n}
	policy := func(b int) int {
		if b == n-1 {
			return 0
		}
		return b % 3
	}
	for b := 0; b < n; b++ {
		st := Stage{Ops: []Op{{Kind: Fwd, Block: b, Duration: 1, Alloc: act}}}
		if b > 0 {
			switch policy(b - 1) {
			case 1:
				st.Ops = append(st.Ops, Op{Kind: SwapOut, Block: b - 1, Duration: 2, Free: act})
			case 2:
				st.Ops[0].Free += act
			}
		}
		p.Stages = append(p.Stages, st)
	}
	first := Stage{Ops: []Op{{Kind: Bwd, Block: n - 1, Duration: 1, Free: act}}}
	for b := n - 2; b >= 0; b-- {
		if policy(b) == 1 {
			first.Ops = append(first.Ops, Op{Kind: SwapIn, Block: b, Duration: 2, Alloc: act})
		}
	}
	p.Stages = append(p.Stages, first)
	for b := n - 2; b >= 0; b-- {
		if policy(b) == 2 {
			p.Stages = append(p.Stages, Stage{Ops: []Op{{Kind: Recompute, Block: b, Duration: 1, Alloc: act}}})
		}
		p.Stages = append(p.Stages, Stage{Ops: []Op{{Kind: Bwd, Block: b, Duration: 1, Free: act}}})
	}
	return p
}

// TestCompilerLabelsAcrossPlanSizes reuses one Compiler across plans of
// 4, 300 and 2 blocks — the alternation dist's pooled compilers see —
// and checks every label against its formatted form. Between them the
// plans use every kind, so every row of the label table is exercised.
func TestCompilerLabelsAcrossPlanSizes(t *testing.T) {
	plans := []*Plan{
		kindsPlan(4, allKindsOrder),
		kindsPlan(300, []Kind{Fwd, SwapOut, SwapIn, Recompute, Bwd}),
		kindsPlan(2, allKindsOrder),
		kindsPlan(4, allKindsOrder),
	}
	var c Compiler
	used := map[Kind]bool{}
	for _, p := range plans {
		out, err := c.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, op := range out.PlanOps {
			used[op.Kind] = true
			if want := fmt.Sprintf("%s%d", op.Kind, op.Block); out.Ops[i].Label != want {
				t.Fatalf("%s: op %d label %q, want %q", p.Name, i, out.Ops[i].Label, want)
			}
		}
	}
	if len(used) != numKinds {
		t.Fatalf("plans used %d kinds, want all %d", len(used), numKinds)
	}
}

// TestCompilerSteadyStateAllocFree pins the reuse contract: once a
// Compiler has lowered a plan, lowering a plan of the same shape again
// allocates nothing.
func TestCompilerSteadyStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, p := range []*Plan{swapRecomputePlan(160), kindsPlan(4, allKindsOrder)} {
		var c Compiler
		if _, err := c.Compile(p); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := c.Compile(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm Compile allocated %.1f objects/op, want 0", p.Name, allocs)
		}
	}
}

// BenchmarkCompile lowers a 160-block swap/recompute plan (the mean
// block count of the Fig. 5 profiles) through one reused Compiler and
// through a fresh one per call (Plan.Compile, the one-shot path of the
// baselines and the exports). Lowering keeps no caches beyond the
// Compiler value itself, so a cold run differs from a warm one only by
// process warm-up.
func BenchmarkCompile(b *testing.B) {
	p := swapRecomputePlan(160)
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var c Compiler
		for i := 0; i < b.N; i++ {
			if _, err := c.Compile(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
