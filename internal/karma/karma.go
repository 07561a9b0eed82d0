// Package karma is the core library: it turns a profiled model into an
// out-of-core execution schedule using the paper's capacity-based layer
// swapping interleaved with redundant recompute (§III), and simulates the
// schedule to produce throughput and stall reports.
//
// The pipeline mirrors Fig. 1:
//
//	profile (internal/profiler)            — steps 1-2
//	→ partition search (Opt-1, §III-F1)    — step 3
//	→ recompute interleave (Opt-2)         — step 4
//	→ schedule generation (Algorithm 1)    — step 5
//	→ simulation (internal/sim)            — evaluation
package karma

import (
	"fmt"
	"math"

	"karma/internal/profiler"
	"karma/internal/unit"
)

// Policy is the per-block memory strategy.
type Policy int

// Block policies.
const (
	// Keep leaves the block's activations resident in near memory
	// (the capacity-based resident suffix of §III-E2).
	Keep Policy = iota
	// Swap moves the block's activations to far memory after the forward
	// pass and prefetches them back during backward.
	Swap
	// Recompute drops the block's activations after the forward pass and
	// redundantly recomputes them during backward (§III-F).
	Recompute
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Keep:
		return "keep"
	case Swap:
		return "swap"
	case Recompute:
		return "recompute"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Block is one planner block: a contiguous range of profiled segments
// under a single policy.
type Block struct {
	// Range is the half-open [start, end) span of profiler blocks.
	Range [2]int
	// Cost is the merged cost over the range: in Plan's schedules,
	// exactly Profile.MergeCosts(Range[0], Range[1]), whose Seg.Nodes and
	// Seg.PinnedIn lists are empty. Read the profile's Blocks over Range
	// for the segments' layers.
	Cost profiler.Block
	// Policy chosen by the optimizer.
	Policy Policy
	// Ckpt marks this block's output boundary as a resident checkpoint:
	// the following recompute run replays from it instead of extending
	// backwards through this block. This is how adjacent recompute runs
	// split without a swap separator (the gradient-checkpointing
	// structure, subsumed by KARMA's search).
	Ckpt bool
	// WBytes is the block's streamed weight payload: zero in the
	// single-GPU default (weights stay resident for the whole iteration),
	// the block's parameter footprint under Options.StreamWeights — the
	// cluster regime of §III-G where weights swap with their blocks.
	WBytes unit.Bytes
	// GBytes is the streamed gradient payload drained to far memory each
	// iteration (shrunk by Options.GradScale under ZeRO-style sharding).
	// Zero when gradients stay resident with the weights.
	GBytes unit.Bytes
}

// Payload returns the device memory the block occupies while resident:
// its stored activations plus, under weight streaming, the weight and
// gradient footprint that travels with the block (§III-G).
func (b *Block) Payload() unit.Bytes { return b.Cost.ActBytes + b.WBytes + b.GBytes }

// Solver selects the Opt-1 search backend.
type Solver int

// Available solvers.
const (
	// SolverBalanced enumerates balanced partitions and refines
	// boundaries by deterministic hill climbing (default).
	SolverBalanced Solver = iota
	// SolverACO uses the ant-colony optimizer (the MIDACO stand-in).
	SolverACO
)

// Options configures the planner.
type Options struct {
	// MaxBlocks caps the partition size searched (default 32).
	MaxBlocks int
	// DisableRecompute turns off the Opt-2 recompute interleave,
	// yielding the pure capacity-based swapping planner ("KARMA" vs
	// "KARMA w/recompute" in Fig. 5).
	DisableRecompute bool
	// Solver selects the Opt-1 backend.
	Solver Solver
	// Seed drives the stochastic solver.
	Seed int64
	// Headroom is the fraction of the activation budget reserved for
	// transient working tensors (default 0.05).
	Headroom float64
	// StreamWeights plans the cluster regime of §III-G (used by
	// dist.Planned): block weights and gradients stream with their
	// activations instead of staying resident, so the budget reserves only
	// pinned tensors and headroom, block payloads grow by the weight and
	// gradient footprint, and the generated plan carries the weight
	// prefetch and gradient drain traffic.
	StreamWeights bool
	// GradScale scales the streamed (or resident) gradient/optimizer
	// payload per block: 1/replicas under ZeRO-style sharding across a
	// data-parallel group. Zero means 1 (unsharded).
	GradScale float64
}

func (o *Options) normalize() {
	if o.MaxBlocks <= 0 {
		o.MaxBlocks = 32
	}
	if o.Headroom == 0 {
		o.Headroom = 0.05
	}
	if o.GradScale <= 0 {
		o.GradScale = 1
	}
}

// Schedule is a planned iteration.
type Schedule struct {
	Profile *profiler.Profile
	Opts    Options
	Blocks  []Block
	// Resident is the index of the first resident block: blocks
	// [Resident:] keep their activations in near memory.
	Resident int
	// Budget is the device memory available to activations after
	// reserving weights, gradients, recompute checkpoints, pinned skip
	// tensors and headroom.
	Budget unit.Bytes
}

// NumBlocks returns the partition size.
func (s *Schedule) NumBlocks() int { return len(s.Blocks) }

// SwappedBytes returns the total payload of swapped blocks (per
// direction; under weight streaming this includes the weight and gradient
// share travelling with each block).
func (s *Schedule) SwappedBytes() unit.Bytes {
	var n unit.Bytes
	for i := range s.Blocks {
		if b := &s.Blocks[i]; b.Policy == Swap {
			n += b.Payload()
		}
	}
	return n
}

// RecomputedTime returns the redundant compute added per iteration.
func (s *Schedule) RecomputedTime() unit.Seconds {
	var t unit.Seconds
	for _, b := range s.Blocks {
		if b.Policy == Recompute {
			t += b.Cost.FwdTime
		}
	}
	return t
}

// BudgetFor computes the activation budget for a profile: usable device
// memory minus resident weights+gradients, pinned skip tensors, and
// headroom. An error is returned when the model's weights alone leave no
// room; such models must stream weights as well as activations, the
// regime Options.StreamWeights plans and dist.KARMADataParallel costs
// out.
func BudgetFor(p *profiler.Profile, headroom float64) (unit.Bytes, error) {
	return ActivationBudget(p, Options{Headroom: headroom})
}

// ActivationBudget computes the planner budget under the options'
// residency regime. The single-GPU default reserves resident weights plus
// gradients (scaled by GradScale) like BudgetFor; with StreamWeights the
// weight and gradient footprint enters the streamed block payloads
// instead, so only pinned skip tensors and headroom are reserved.
func ActivationBudget(p *profiler.Profile, o Options) (unit.Bytes, error) {
	gs := o.GradScale
	if gs <= 0 {
		gs = 1
	}
	usable := p.Node.Device.UsableMem()
	var pinned unit.Bytes
	for _, b := range p.Blocks {
		pinned += b.PinnedInBytes
	}
	reserve := pinned
	if !o.StreamWeights {
		reserve += p.TotalWeightBytes +
			unit.Bytes(math.Ceil(gs*float64(p.TotalWeightBytes)))
	}
	budget := usable - reserve
	budget -= unit.Bytes(float64(budget) * o.Headroom)
	if budget <= 0 {
		if o.StreamWeights {
			return 0, fmt.Errorf("karma: pinned tensors (%v) exceed device memory %v", pinned, usable)
		}
		return 0, fmt.Errorf("karma: weights (%v x2) and pinned tensors (%v) exceed device memory %v; use the distributed planner",
			p.TotalWeightBytes, pinned, usable)
	}
	return budget, nil
}
