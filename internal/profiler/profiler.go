// Package profiler is the offline-profiling stage of KARMA's workflow
// (paper Fig. 1 steps 1–2, §III-C/D): it turns a shape-inferred model
// graph plus a hardware description into per-block compute and memory
// metadata — the input of the occupancy model and the two-tier optimizer.
//
// In the paper this step runs the model once under PyTorch's
// memory_stats(); here the footprints derive from tensor shapes with an
// empirical overhead factor standing in for allocator/workspace effects
// (the projection-by-variable-type of §III-D: profile once, then scale
// per-sample quantities by the batch size).
package profiler

import (
	"fmt"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/layer"
	"karma/internal/tensor"
	"karma/internal/unit"
)

// Options configures a profiling run.
type Options struct {
	// Batch is the mini-batch size (samples resident per iteration).
	Batch int
	// MaxOpen bounds live tensors per segmentation cut (see
	// graph.Segments). Zero means 1 (strict chain).
	MaxOpen int
	// ActOverhead multiplies raw activation bytes to account for
	// framework allocator slack and kernel workspaces, the quantities the
	// paper measures empirically (§III-D). Zero means 1.0.
	ActOverhead float64
	// DType is the training element type. Default FP32.
	DType tensor.DType
}

func (o *Options) normalize() error {
	if o.Batch <= 0 {
		return fmt.Errorf("profiler: batch must be positive, got %d", o.Batch)
	}
	if o.MaxOpen < 1 {
		o.MaxOpen = 1
	}
	if o.ActOverhead == 0 {
		o.ActOverhead = 1.0
	}
	if o.ActOverhead < 0 {
		return fmt.Errorf("profiler: negative activation overhead %v", o.ActOverhead)
	}
	return nil
}

// Block is the profiled cost of one graph segment at the chosen batch.
type Block struct {
	Seg   graph.Segment
	Stats graph.SegmentStats

	// FwdTime and BwdTime are the device compute times for the block.
	FwdTime unit.Seconds
	BwdTime unit.Seconds
	// UpdateFLOPs is the weight-update work (per parameter constant ops).
	UpdateFLOPs unit.FLOPs

	// ActBytes is the stored-activation footprint the backward pass
	// needs (the swap payload), including the empirical overhead.
	ActBytes unit.Bytes
	// HeavyActBytes is the portion of ActBytes produced by weighted
	// layers (convolutions, dense, attention, ...). The remainder comes
	// from cheap layers (normalization, pooling) whose outputs can be
	// recomputed locally from in-block tensors instead of swapped — the
	// intra-block split SuperNeurons hard-codes and KARMA's optimizer
	// chooses by cost.
	HeavyActBytes unit.Bytes
	// CheapFwdTime is the recompute cost of the non-heavy portion.
	CheapFwdTime unit.Seconds
	// OutBytes is the boundary activation crossing to the next block.
	OutBytes unit.Bytes
	// WeightBytes is the parameter footprint (gradients cost the same
	// again while resident in backward).
	WeightBytes unit.Bytes
	// PinnedInBytes is the footprint of activations entering from
	// non-adjacent earlier blocks (U-Net skips, §III-F4).
	PinnedInBytes unit.Bytes

	// SwapTime is the one-direction transfer time for ActBytes over the
	// node's swap path (Eq. 4 throughput).
	SwapTime unit.Seconds
}

// sgdFLOPsPerParam is the weight-update cost used for CPU-side updates
// (§III-G stage 5): SGD with momentum reads w, g, m and writes w, m with
// ~4 arithmetic ops per parameter.
const sgdFLOPsPerParam = 4

// Profile is the full per-block cost table for one (model, node, batch).
type Profile struct {
	Graph  *graph.Graph
	Node   hw.Node
	Opts   Options
	Blocks []Block

	// TotalWeightBytes is the whole model's parameter footprint.
	TotalWeightBytes unit.Bytes
	// TotalActBytes is the whole model's stored-activation footprint.
	TotalActBytes unit.Bytes
}

// inplace reports whether a layer's output aliases its input in framework
// practice (PyTorch inplace=True activations and residual adds), so it
// contributes no separately stored activation.
func inplace(l layer.Layer) bool {
	switch l.(type) {
	case *layer.ReLU, *layer.Dropout, *layer.Add, *layer.Flatten:
		return true
	default:
		return false
	}
}

// heavy reports whether a layer carries weights whose output is worth
// swapping rather than recomputing (the SuperNeurons layer-type split,
// used by KARMA as a cost-driven option).
func heavy(l layer.Layer) bool {
	switch l.(type) {
	case *layer.Conv2D, *layer.Deconv2D, *layer.Dense,
		*layer.SelfAttention, *layer.LSTM, *layer.Embedding:
		return true
	default:
		return false
	}
}

// New profiles the graph on the node at the given options.
func New(g *graph.Graph, node hw.Node, opts Options) (*Profile, error) {
	if err := (&opts).normalize(); err != nil {
		return nil, err
	}
	if err := node.Device.Validate(); err != nil {
		return nil, err
	}
	segs := g.Segments(opts.MaxOpen)
	// Compute times follow the training dtype: an fp16 profile rides the
	// device's tensor-core rate when the boost is enabled (off by
	// default, holding rates constant across precisions).
	rate := node.Device.SustainedFLOPSFor(opts.DType)
	swapBW := hw.SwapThroughput(node)
	elem := int64(opts.DType.Size())
	batch := int64(opts.Batch)

	p := &Profile{Graph: g, Node: node, Opts: opts, Blocks: make([]Block, 0, len(segs))}
	for _, seg := range segs {
		st := g.Stats(seg)
		var actElems, heavyElems, cheapFLOPs int64
		for _, id := range seg.Nodes {
			n := g.Node(id)
			if inplace(n.L) {
				continue
			}
			actElems += n.OutShape.Elems()
			if heavy(n.L) {
				heavyElems += n.OutShape.Elems()
			} else {
				cheapFLOPs += n.FwdFLOPs
			}
		}
		var pinned unit.Bytes
		for _, e := range seg.PinnedIn {
			pinned += unit.Bytes(g.Node(e.From).OutShape.Elems() * elem * batch)
		}
		b := Block{
			Seg:           seg,
			Stats:         st,
			FwdTime:       unit.ComputeTime(unit.FLOPs(st.FwdFLOPs*batch), rate),
			BwdTime:       unit.ComputeTime(unit.FLOPs(st.BwdFLOPs*batch), rate),
			UpdateFLOPs:   unit.FLOPs(st.Params * sgdFLOPsPerParam),
			ActBytes:      unit.Bytes(float64(actElems*elem*batch) * opts.ActOverhead),
			HeavyActBytes: unit.Bytes(float64(heavyElems*elem*batch) * opts.ActOverhead),
			CheapFwdTime:  unit.ComputeTime(unit.FLOPs(cheapFLOPs*batch), rate),
			OutBytes:      unit.Bytes(st.OutElems * elem * batch),
			WeightBytes:   unit.Bytes(st.Params * elem),
			PinnedInBytes: pinned,
		}
		b.SwapTime = unit.TransferTime(b.ActBytes+b.WeightBytes, swapBW, node.Link.Latency)
		p.Blocks = append(p.Blocks, b)
		p.TotalWeightBytes += b.WeightBytes
		p.TotalActBytes += b.ActBytes
	}
	return p, nil
}

// Totals aggregates the per-block compute quantities the cluster-scale
// models (internal/dist) consume: forward and backward device time and
// the weight-update work for the whole model at the profiled batch.
func (p *Profile) Totals() (fwd, bwd unit.Seconds, update unit.FLOPs) {
	for _, b := range p.Blocks {
		fwd += b.FwdTime
		bwd += b.BwdTime
		update += b.UpdateFLOPs
	}
	return fwd, bwd, update
}

// InCoreBytes returns the peak device footprint of conventional (no swap,
// no recompute) training: all stored activations, weights, and one
// gradient copy of the weights.
func (p *Profile) InCoreBytes() unit.Bytes {
	return p.TotalActBytes + 2*p.TotalWeightBytes
}

// FitsInCore reports whether conventional training fits device memory.
func (p *Profile) FitsInCore() bool {
	return p.InCoreBytes() <= p.Node.Device.UsableMem()
}

// MergeBlocks coalesces consecutive profiled blocks [i, j) into one,
// re-aggregating costs. The planner uses this to evaluate candidate
// partitions without re-profiling.
func (p *Profile) MergeBlocks(i, j int) Block {
	if i < 0 || j > len(p.Blocks) || i >= j {
		panic(fmt.Sprintf("profiler: bad merge range [%d,%d) of %d", i, j, len(p.Blocks)))
	}
	out := p.Blocks[i]
	// Clone pinned list to avoid aliasing the source block's slice.
	out.Seg.PinnedIn = append([]graph.Edge(nil), out.Seg.PinnedIn...)
	out.Seg.Nodes = append([]graph.NodeID(nil), out.Seg.Nodes...)
	for k := i + 1; k < j; k++ {
		b := p.Blocks[k]
		out.Seg.Nodes = append(out.Seg.Nodes, b.Seg.Nodes...)
		out.Seg.PinnedIn = append(out.Seg.PinnedIn, b.Seg.PinnedIn...)
		out.Stats.FwdFLOPs += b.Stats.FwdFLOPs
		out.Stats.BwdFLOPs += b.Stats.BwdFLOPs
		out.Stats.Params += b.Stats.Params
		out.Stats.ActElems += b.Stats.ActElems
		out.Stats.OutElems = b.Stats.OutElems
		out.FwdTime += b.FwdTime
		out.BwdTime += b.BwdTime
		out.UpdateFLOPs += b.UpdateFLOPs
		out.ActBytes += b.ActBytes
		out.HeavyActBytes += b.HeavyActBytes
		out.CheapFwdTime += b.CheapFwdTime
		out.OutBytes = b.OutBytes
		out.WeightBytes += b.WeightBytes
		out.PinnedInBytes += b.PinnedInBytes
	}
	swapBW := hw.SwapThroughput(p.Node)
	out.SwapTime = unit.TransferTime(out.ActBytes+out.WeightBytes, swapBW, p.Node.Link.Latency)
	return out
}

// MergeCosts is MergeBlocks without the segment metadata: it aggregates
// the numeric cost fields of blocks [i, j) in the same order (so the
// results are bit-identical) but leaves the merged Seg node and pinned
// lists empty instead of cloning them. The planner's candidate
// evaluation reads only costs, and the clone is the dominant allocation
// of that search.
func (p *Profile) MergeCosts(i, j int) Block {
	if i < 0 || j > len(p.Blocks) || i >= j {
		panic(fmt.Sprintf("profiler: bad merge range [%d,%d) of %d", i, j, len(p.Blocks)))
	}
	out := p.Blocks[i]
	out.Seg.PinnedIn = nil
	out.Seg.Nodes = nil
	for k := i + 1; k < j; k++ {
		b := &p.Blocks[k]
		out.Stats.FwdFLOPs += b.Stats.FwdFLOPs
		out.Stats.BwdFLOPs += b.Stats.BwdFLOPs
		out.Stats.Params += b.Stats.Params
		out.Stats.ActElems += b.Stats.ActElems
		out.Stats.OutElems = b.Stats.OutElems
		out.FwdTime += b.FwdTime
		out.BwdTime += b.BwdTime
		out.UpdateFLOPs += b.UpdateFLOPs
		out.ActBytes += b.ActBytes
		out.HeavyActBytes += b.HeavyActBytes
		out.CheapFwdTime += b.CheapFwdTime
		out.OutBytes = b.OutBytes
		out.WeightBytes += b.WeightBytes
		out.PinnedInBytes += b.PinnedInBytes
	}
	swapBW := hw.SwapThroughput(p.Node)
	out.SwapTime = unit.TransferTime(out.ActBytes+out.WeightBytes, swapBW, p.Node.Link.Latency)
	return out
}
