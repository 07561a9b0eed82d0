// Package plan defines the execution-plan IR that KARMA's planner (and
// every baseline) emits — the "schedule of stages" of paper Algorithm 1 —
// and compiles it into the op DAG the sim package executes.
//
// A plan is a serial sequence of stages; ops inside one stage are
// independent and launch together (the paper's "||" notation), compute
// ops serialize stage order (the "→" notation), and asynchronous copies
// proceed on their own streams. Data dependencies (a backward pass needs
// its activations swapped in or recomputed; a gradient exchange needs the
// gradients computed; ...) are derived automatically from op kinds, so a
// planner only decides ordering and memory policy.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"karma/internal/sim"
	"karma/internal/unit"
)

// Kind enumerates schedulable operations.
type Kind int

// Operation kinds.
const (
	Fwd          Kind = iota // forward compute of a block (device)
	Bwd                      // backward compute of a block (device)
	Recompute                // redundant forward recompute (device)
	SwapOut                  // device -> host copy
	SwapIn                   // host -> device copy
	GradExchange             // inter-node all-reduce of a block's gradients
	UpdateCPU                // weight update on the host (§III-G stage 5)
	UpdateGPU                // weight update on the device
	// MPAllReduce is the blocking model-parallel all-reduce of a
	// Megatron-style MP group spanning nodes: it reduces the partial sums
	// its block's latest compute op produced, and the compiler stalls the
	// consumer on it — the next block's forward, or the previous block's
	// backward (which may overlap it with its own weight-gradient work).
	MPAllReduce
	// MPAllReduceLocal is the same collective for an MP group packed
	// inside one node: it runs over NVLink and leaves the network stream
	// free for the data-parallel exchange.
	MPAllReduceLocal
	// ParamGather is ZeRO's parameter all-gather prefetch: in steady state
	// the gather of freshly-updated shards overlaps the forward pass that
	// consumes them, so it occupies the network stream without gating.
	ParamGather
	// Send is a pipeline-parallel stage-boundary transfer leaving this
	// device over the network: the boundary activation of a forward
	// micro-batch (or the boundary gradient of a backward one) bound for
	// the neighbouring stage. It launches once its block's latest compute
	// op has produced the tensor and proceeds asynchronously.
	Send
	// Recv is the matching arrival from a neighbouring stage: the block's
	// forward (or backward) compute gates on it — a micro-batch cannot
	// start before its input crosses the wire.
	Recv
	// SendLocal / RecvLocal are the same transfers for pipeline stages
	// packed inside one node, riding NVLink and leaving the network
	// stream to the data-parallel exchange.
	SendLocal
	RecvLocal
)

// numKinds bounds the Kind enum for flat (kind, block) indexing.
const numKinds = int(RecvLocal) + 1

// String returns the paper-style op mnemonic.
func (k Kind) String() string {
	switch k {
	case Fwd:
		return "F"
	case Bwd:
		return "B"
	case Recompute:
		return "R"
	case SwapOut:
		return "Sout"
	case SwapIn:
		return "Sin"
	case GradExchange:
		return "Ex"
	case UpdateCPU:
		return "Ucpu"
	case UpdateGPU:
		return "Ugpu"
	case MPAllReduce:
		return "Ar"
	case MPAllReduceLocal:
		return "ArL"
	case ParamGather:
		return "Ag"
	case Send:
		return "Tx"
	case Recv:
		return "Rx"
	case SendLocal:
		return "TxL"
	case RecvLocal:
		return "RxL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// stream maps an op kind to its hardware stream.
func (k Kind) stream() sim.Stream {
	switch k {
	case Fwd, Bwd, Recompute, UpdateGPU:
		return sim.Compute
	case SwapOut:
		return sim.D2H
	case SwapIn:
		return sim.H2D
	case GradExchange, MPAllReduce, ParamGather, Send, Recv:
		return sim.Network
	case MPAllReduceLocal, SendLocal, RecvLocal:
		return sim.NVLink
	case UpdateCPU:
		return sim.HostCPU
	default:
		panic(fmt.Sprintf("plan: unknown kind %d", int(k)))
	}
}

// compute reports whether the kind runs on the device compute stream.
func (k Kind) compute() bool { return k.stream() == sim.Compute }

// Op is one operation on one block.
type Op struct {
	Kind  Kind
	Block int
	// Duration of the op once started.
	Duration unit.Seconds
	// Alloc is device memory acquired at start; Free is released at end.
	Alloc, Free unit.Bytes
}

// Stage is a set of ops launched together.
type Stage struct {
	Ops []Op
}

// Plan is a complete schedule over NumBlocks blocks.
type Plan struct {
	Name      string
	NumBlocks int
	Stages    []Stage
}

// String renders the plan in the paper's notation, e.g.
// "F0 → F1||Sout0 → ... → B1||Sin0 → B0".
func (p *Plan) String() string {
	var sb strings.Builder
	for i, st := range p.Stages {
		if i > 0 {
			sb.WriteString(" → ")
		}
		for j, op := range st.Ops {
			if j > 0 {
				sb.WriteString("||")
			}
			fmt.Fprintf(&sb, "%s%d", op.Kind, op.Block)
		}
	}
	return sb.String()
}

// Validate checks structural sanity: block indices in range, and every
// consumer op preceded by its producer (Bwd by Fwd, GradExchange by Bwd,
// updates by Bwd, MP all-reduces by some compute op of their block).
func (p *Plan) Validate() error {
	type seenKey struct {
		k Kind
		b int
	}
	seen := map[seenKey]bool{}
	for si, st := range p.Stages {
		for oi, op := range st.Ops {
			if op.Block < 0 || op.Block >= p.NumBlocks {
				return fmt.Errorf("plan %s: stage %d op %d: block %d out of range [0,%d)",
					p.Name, si, oi, op.Block, p.NumBlocks)
			}
			if op.Duration < 0 || op.Alloc < 0 || op.Free < 0 {
				return fmt.Errorf("plan %s: stage %d op %d: negative cost", p.Name, si, oi)
			}
			switch op.Kind {
			case Bwd:
				if !seen[seenKey{Fwd, op.Block}] {
					return fmt.Errorf("plan %s: B%d before F%d", p.Name, op.Block, op.Block)
				}
			case GradExchange:
				if !seen[seenKey{Bwd, op.Block}] {
					return fmt.Errorf("plan %s: Ex%d before B%d", p.Name, op.Block, op.Block)
				}
			case UpdateCPU, UpdateGPU:
				if !seen[seenKey{Bwd, op.Block}] {
					return fmt.Errorf("plan %s: update of block %d before B%d", p.Name, op.Block, op.Block)
				}
			case MPAllReduce, MPAllReduceLocal, Send, SendLocal:
				// A collective reduces — and a Send ships — a tensor some
				// compute of the block must first have produced; a Recv has
				// no local producer (its source is another device) and may
				// appear anywhere.
				if !seen[seenKey{Fwd, op.Block}] && !seen[seenKey{Bwd, op.Block}] && !seen[seenKey{Recompute, op.Block}] {
					return fmt.Errorf("plan %s: %s%d before any compute of block %d", p.Name, op.Kind, op.Block, op.Block)
				}
			}
			seen[seenKey{op.Kind, op.Block}] = true
		}
	}
	return nil
}

// Ref locates a plan op inside the compiled op slice.
type Ref struct {
	Stage, Index int // position within the plan
	Sim          int // index into the compiled []sim.Op
}

// Compiled is the result of lowering a Plan for simulation.
type Compiled struct {
	Ops []sim.Op
	// Refs parallels Ops, mapping each sim op back to its plan position.
	Refs []Ref
	// PlanOps parallels Ops with the original plan op.
	PlanOps []Op
}

// Compile lowers the plan to simulator ops.
//
// Launch dependencies: every op in stage s depends on the last
// compute-stream op of the nearest earlier stage that has one (stages
// gate on processing; copies and collectives are asynchronous).
//
// Data dependencies (auto-derived, keyed by most recent occurrence;
// MPAllReduce below stands for MPAllReduceLocal too):
//
//	Fwd(b), Bwd(b)  ← latest SwapIn(b), Recompute(b), ParamGather(b)
//	Fwd(b), Bwd(b)  ← latest Recv(b) (stage-boundary arrival; RecvLocal too)
//	Fwd(b)          ← latest MPAllReduce(b-1) (reduced boundary input)
//	Bwd(b)          ← latest MPAllReduce(b+1) (reduced gradient input)
//	Send(b)         ← latest compute op of the block (boundary source;
//	                  SendLocal too)
//	Recompute(b)    ← latest SwapIn(b) and SwapIn(b-1) (boundary/weights)
//	Recompute(b)    ← latest MPAllReduce(b-1) (replayed boundary)
//	SwapOut(b)      ← latest compute op of the block
//	MPAllReduce(b)  ← latest compute op of the block (partial-sum source)
//	GradExchange(b) ← latest SwapOut(b) (if any) else Bwd(b)
//	UpdateCPU(b),
//	UpdateGPU(b)    ← latest GradExchange(b) (if any) else SwapOut/Bwd
//	SwapIn(b)       ← latest UpdateCPU(b) (next-iteration reload)
//
// Compile allocates a fresh Compiler per call; callers lowering many
// same-shape plans (the planner's candidate search) should hold a
// Compiler and reuse it.
func (p *Plan) Compile() (*Compiled, error) {
	out, err := new(Compiler).Compile(p)
	if err != nil {
		return nil, err
	}
	// Detach from the (otherwise reusable) compiler buffers.
	return &Compiled{Ops: out.Ops, Refs: out.Refs, PlanOps: out.PlanOps}, nil
}

// Compiler lowers plans to simulator ops while retaining its working
// buffers — the op/ref arenas, the dependency arena, the (kind, block)
// recency table, and the per-kind label table — between Compile calls,
// so lowering same-shape plans allocates nothing after the first call.
// A Compiler is not safe for concurrent use, and the Compiled view it
// returns is overwritten by the next Compile call.
type Compiler struct {
	out  Compiled
	deps []int // arena backing every compiled op's Deps slice
	// last and seen are flat (kind, block) tables sized numKinds*NumBlocks:
	// most recent sim-op index per key (-1 = none), and whether the key
	// appeared at all (validation).
	last []int
	seen []bool
	// labels[k][b] is the "<kind><block>" label, formatted on first use.
	// Rows only grow, so a Compiler alternating between plan sizes keeps
	// every label it has formatted.
	labels [numKinds][]string
}

// label returns the "<kind><block>" string of a block of a plan with
// numBlocks blocks, formatting it once. A row too short for the plan
// grows to its size, so lowering one plan grows each row at most once.
func (c *Compiler) label(k Kind, b, numBlocks int) string {
	row := c.labels[k]
	if b >= len(row) {
		grown := make([]string, numBlocks)
		copy(grown, row)
		row = grown
		c.labels[k] = row
	}
	if row[b] == "" {
		var buf [16]byte
		row[b] = string(strconv.AppendInt(append(buf[:0], k.String()...), int64(b), 10))
	}
	return row[b]
}

// validate mirrors Plan.Validate exactly (same checks, same error
// messages) but marks (kind, block) occurrences in the compiler's flat
// table instead of a fresh map.
func (c *Compiler) validate(p *Plan) error {
	seen := c.seen
	was := func(k Kind, b int) bool { return seen[int(k)*p.NumBlocks+b] }
	for si, st := range p.Stages {
		for oi, op := range st.Ops {
			if op.Block < 0 || op.Block >= p.NumBlocks {
				return fmt.Errorf("plan %s: stage %d op %d: block %d out of range [0,%d)",
					p.Name, si, oi, op.Block, p.NumBlocks)
			}
			if op.Duration < 0 || op.Alloc < 0 || op.Free < 0 {
				return fmt.Errorf("plan %s: stage %d op %d: negative cost", p.Name, si, oi)
			}
			switch op.Kind {
			case Bwd:
				if !was(Fwd, op.Block) {
					return fmt.Errorf("plan %s: B%d before F%d", p.Name, op.Block, op.Block)
				}
			case GradExchange:
				if !was(Bwd, op.Block) {
					return fmt.Errorf("plan %s: Ex%d before B%d", p.Name, op.Block, op.Block)
				}
			case UpdateCPU, UpdateGPU:
				if !was(Bwd, op.Block) {
					return fmt.Errorf("plan %s: update of block %d before B%d", p.Name, op.Block, op.Block)
				}
			case MPAllReduce, MPAllReduceLocal, Send, SendLocal:
				if !was(Fwd, op.Block) && !was(Bwd, op.Block) && !was(Recompute, op.Block) {
					return fmt.Errorf("plan %s: %s%d before any compute of block %d", p.Name, op.Kind, op.Block, op.Block)
				}
			}
			seen[int(op.Kind)*p.NumBlocks+op.Block] = true
		}
	}
	return nil
}

// depsPerOp sizes the dependency arena: the launch gate plus one data
// dependency covers most ops; the arena still grows for denser plans.
const depsPerOp = 2

// Compile lowers the plan, reusing the Compiler's buffers. Semantics
// are identical to Plan.Compile.
func (c *Compiler) Compile(p *Plan) (*Compiled, error) {
	// Size and clear the flat (kind, block) tables.
	n := numKinds * p.NumBlocks
	if cap(c.last) < n {
		c.last = make([]int, n)
		c.seen = make([]bool, n)
	}
	c.last = c.last[:n]
	c.seen = c.seen[:n]
	for i := range c.last {
		c.last[i] = -1
		c.seen[i] = false
	}
	if err := c.validate(p); err != nil {
		return nil, err
	}
	// Size the arenas from the op count up front, so neither a one-shot
	// Compile nor the first lowering of a reused Compiler regrows them.
	nops := 0
	for _, st := range p.Stages {
		nops += len(st.Ops)
	}
	if cap(c.out.Ops) < nops {
		c.out.Ops = make([]sim.Op, 0, nops)
		c.out.Refs = make([]Ref, 0, nops)
		c.out.PlanOps = make([]Op, 0, nops)
	}
	if cap(c.deps) < depsPerOp*nops {
		c.deps = make([]int, 0, depsPerOp*nops)
	}
	c.out.Ops = c.out.Ops[:0]
	c.out.Refs = c.out.Refs[:0]
	c.out.PlanOps = c.out.PlanOps[:0]
	c.deps = c.deps[:0]
	last := c.last
	lastGate := -1 // most recent compute gate across stages

	get := func(k Kind, b int) (int, bool) {
		if b < 0 || b >= p.NumBlocks {
			return 0, false
		}
		i := last[int(k)*p.NumBlocks+b]
		return i, i >= 0
	}
	// depStart marks the current op's segment of the dep arena; addDep
	// appends with dedup against that segment only. Declared once so the
	// closures are allocated per Compile, not per op.
	depStart := 0
	addDep := func(i int) {
		for _, d := range c.deps[depStart:] {
			if d == i {
				return
			}
		}
		c.deps = append(c.deps, i)
	}

	for si, st := range p.Stages {
		gateThisStage := -1
		for oi, op := range st.Ops {
			idx := len(c.out.Ops)
			depStart = len(c.deps)
			if lastGate >= 0 {
				c.deps = append(c.deps, lastGate)
			}
			switch op.Kind {
			case Fwd, Bwd:
				if i, ok := get(SwapIn, op.Block); ok {
					addDep(i)
				}
				if i, ok := get(Recompute, op.Block); ok {
					addDep(i)
				}
				if i, ok := get(ParamGather, op.Block); ok {
					addDep(i)
				}
				for _, k := range []Kind{Recv, RecvLocal} {
					if i, ok := get(k, op.Block); ok {
						addDep(i)
					}
				}
				// A blocking MP collective feeds the consumer of the tensor
				// it reduces: the next block's forward, or the previous
				// block's backward.
				nb := op.Block - 1
				if op.Kind == Bwd {
					nb = op.Block + 1
				}
				for _, k := range []Kind{MPAllReduce, MPAllReduceLocal} {
					if i, ok := get(k, nb); ok {
						addDep(i)
					}
				}
			case Recompute:
				// A recompute replays from its predecessor's boundary
				// activation; when that predecessor was swapped out, the
				// replay must wait for its prefetch (§III-F: recompute
				// interleaved with the swap stream). Under weight
				// streaming the replay also needs the block's own weights
				// back on the device, and under model parallelism a
				// just-replayed predecessor boundary must be re-reduced.
				if i, ok := get(SwapIn, op.Block); ok {
					addDep(i)
				}
				if op.Block > 0 {
					if i, ok := get(SwapIn, op.Block-1); ok {
						addDep(i)
					}
					for _, k := range []Kind{MPAllReduce, MPAllReduceLocal} {
						if i, ok := get(k, op.Block-1); ok {
							addDep(i)
						}
					}
				}
			case SwapOut:
				for _, k := range []Kind{UpdateGPU, Bwd, Recompute, Fwd} {
					if i, ok := get(k, op.Block); ok {
						addDep(i)
						break
					}
				}
			case MPAllReduce, MPAllReduceLocal, Send, SendLocal:
				// The most recent compute op of the block produced the
				// partial sums the collective reduces — or, for a Send, the
				// boundary tensor crossing to the neighbouring stage.
				latest := -1
				for _, k := range []Kind{Fwd, Bwd, Recompute} {
					if i, ok := get(k, op.Block); ok && i > latest {
						latest = i
					}
				}
				if latest >= 0 {
					addDep(latest)
				}
			case GradExchange:
				if i, ok := get(SwapOut, op.Block); ok {
					addDep(i)
				} else if i, ok := get(Bwd, op.Block); ok {
					addDep(i)
				}
			case UpdateCPU, UpdateGPU:
				found := false
				for _, k := range []Kind{GradExchange, SwapOut} {
					if i, ok := get(k, op.Block); ok {
						addDep(i)
						found = true
					}
				}
				if op.Kind == UpdateCPU {
					if i, ok := get(UpdateGPU, op.Block); ok {
						addDep(i)
						found = true
					}
				}
				if !found {
					if i, ok := get(Bwd, op.Block); ok {
						addDep(i)
					}
				}
			case SwapIn:
				if i, ok := get(UpdateCPU, op.Block); ok {
					addDep(i)
				}
			}
			c.out.Ops = append(c.out.Ops, sim.Op{
				Label:      c.label(op.Kind, op.Block, p.NumBlocks),
				Stream:     op.Kind.stream(),
				Duration:   op.Duration,
				Deps:       c.deps[depStart:len(c.deps):len(c.deps)],
				AllocBytes: op.Alloc,
				FreeBytes:  op.Free,
			})
			c.out.Refs = append(c.out.Refs, Ref{Stage: si, Index: oi, Sim: idx})
			c.out.PlanOps = append(c.out.PlanOps, op)
			last[int(op.Kind)*p.NumBlocks+op.Block] = idx
			if op.Kind.compute() {
				gateThisStage = idx
			}
		}
		if gateThisStage >= 0 {
			lastGate = gateThisStage
		}
	}
	return &c.out, nil
}

// Builder assembles plans stage by stage into reusable arenas: all
// stage op slices share one backing array and the stage list is
// recycled across Reset calls, so rebuilding same-shape plans (the
// planner's candidate search) allocates ~nothing after the first build.
// The *Plan returned by Plan aliases the builder's buffers and is
// invalidated by the next Reset; callers that keep a plan must copy it.
type Builder struct {
	p   Plan
	ops []Op // arena backing every stage's Ops slice
	cur int  // start of the open stage within ops
}

// Reset clears the builder and names the plan being assembled.
func (b *Builder) Reset(name string, numBlocks int) *Builder {
	b.p.Name = name
	b.p.NumBlocks = numBlocks
	b.p.Stages = b.p.Stages[:0]
	b.ops = b.ops[:0]
	return b
}

// BeginStage opens a new stage; subsequent Add calls land in it.
func (b *Builder) BeginStage() { b.cur = len(b.ops) }

// Add appends an op to the open stage.
func (b *Builder) Add(op Op) { b.ops = append(b.ops, op) }

// EndStage commits the open stage — possibly empty, matching planners
// that emit placeholder stages.
func (b *Builder) EndStage() {
	b.p.Stages = append(b.p.Stages, Stage{Ops: b.ops[b.cur:len(b.ops):len(b.ops)]})
}

// Stage commits the given ops as one complete stage.
func (b *Builder) Stage(ops ...Op) {
	b.BeginStage()
	b.ops = append(b.ops, ops...)
	b.EndStage()
}

// Plan returns the assembled plan, valid until the next Reset.
func (b *Builder) Plan() *Plan { return &b.p }

// Simulate compiles and runs the plan against the given capacity.
func (p *Plan) Simulate(capacity unit.Bytes) (*Compiled, *sim.Timeline, error) {
	c, err := p.Compile()
	if err != nil {
		return nil, nil, err
	}
	tl, err := sim.Run(c.Ops, capacity)
	if err != nil {
		return nil, nil, fmt.Errorf("plan %s: %w", p.Name, err)
	}
	return c, tl, nil
}
