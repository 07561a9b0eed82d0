package plan

import (
	"karma/internal/sim"
	"karma/internal/unit"
)

// Template is a compiled plan kept compactly for re-instantiation. A
// sweep that simulates one plan structure at many grid points — the
// same ops and dependencies, only some durations different — compiles
// the plan once into a Template and, per grid point, instantiates it
// into a Compiler's buffers (Instantiate) and overwrites the durations
// that vary, skipping the lowering and the dependency derivation.
//
// Each op is one 32-byte row (duration, memory deltas, block, end of
// its dependency span) plus a kind byte, and dependencies are int32:
// about a quarter of a Compiled's footprint, which matters because an
// evaluator keeps many templates resident. A Template is immutable once
// built and safe for concurrent use.
type Template struct {
	name      string
	numBlocks int
	kinds     []uint8
	rows      []templateRow
	deps      []int32
}

// templateRow is one compiled op; deps[previous row's depEnd:depEnd]
// are its dependencies.
type templateRow struct {
	dur         unit.Seconds
	alloc, free unit.Bytes
	block       int32
	depEnd      int32
}

// Template compiles p and returns its compilation as a Template. Errors
// are Compile's.
func (c *Compiler) Template(p *Plan) (*Template, error) {
	out, err := c.Compile(p)
	if err != nil {
		return nil, err
	}
	t := &Template{
		name:      p.Name,
		numBlocks: p.NumBlocks,
		kinds:     make([]uint8, len(out.Ops)),
		rows:      make([]templateRow, len(out.Ops)),
		deps:      make([]int32, 0, len(c.deps)),
	}
	for i, op := range out.Ops {
		for _, d := range op.Deps {
			t.deps = append(t.deps, int32(d))
		}
		po := out.PlanOps[i]
		t.kinds[i] = uint8(po.Kind)
		t.rows[i] = templateRow{
			dur: op.Duration, alloc: op.AllocBytes, free: op.FreeBytes,
			block: int32(po.Block), depEnd: int32(len(t.deps)),
		}
	}
	return t, nil
}

// Name is the name of the plan the template was compiled from.
func (t *Template) Name() string { return t.name }

// Len is the number of compiled ops.
func (t *Template) Len() int { return len(t.rows) }

// Op returns compiled op i as the plan op it was lowered from.
func (t *Template) Op(i int) Op {
	r := &t.rows[i]
	return Op{Kind: t.Kind(i), Block: int(r.block), Duration: r.dur, Alloc: r.alloc, Free: r.free}
}

// Kind returns the plan kind of compiled op i.
func (t *Template) Kind(i int) Kind { return Kind(t.kinds[i]) }

// Instantiate writes the template's ops into the compiler's buffers and
// returns them: op for op what Compile returned for the template's
// plan, labels and dependencies included. Callers overwrite the
// durations that vary in place before simulating; the ops stay valid
// until the compiler's next Compile or Instantiate.
func (c *Compiler) Instantiate(t *Template) []sim.Op {
	n := len(t.rows)
	if cap(c.out.Ops) < n {
		c.out.Ops = make([]sim.Op, 0, n)
	}
	// Deps slices alias the arena, so it must not regrow mid-loop.
	if m := max(len(t.deps), depsPerOp*n); cap(c.deps) < m {
		c.deps = make([]int, 0, m)
	}
	deps := c.deps[:len(t.deps)]
	for i, d := range t.deps {
		deps[i] = int(d)
	}
	c.deps = deps
	ops := c.out.Ops[:n]
	start := 0
	for i := range t.rows {
		r := &t.rows[i]
		k := Kind(t.kinds[i])
		end := int(r.depEnd)
		ops[i] = sim.Op{
			Label:      c.label(k, int(r.block), t.numBlocks),
			Stream:     k.stream(),
			Duration:   r.dur,
			Deps:       deps[start:end:end],
			AllocBytes: r.alloc,
			FreeBytes:  r.free,
		}
		start = end
	}
	c.out.Ops = ops
	return ops
}
