package karma

import (
	"fmt"
	"math"

	"karma/internal/profiler"
	"karma/internal/solve"
	"karma/internal/unit"
)

// InCore returns the trivial all-resident schedule: every profiled block
// keeps its activations in near memory and nothing swaps or recomputes —
// the degenerate case the in-core baselines (conventional DP, the MP
// hybrids at a small batch) execute. An error is returned when the
// stored activations do not fit the budget.
func InCore(p *profiler.Profile, budget unit.Bytes) (*Schedule, error) {
	s, err := identitySchedule(p, budget)
	if err != nil {
		return nil, err
	}
	if p.TotalActBytes > budget {
		return nil, fmt.Errorf("karma: activations need %v of %v; checkpoint or stream", p.TotalActBytes, budget)
	}
	return s, nil
}

// Checkpoint returns the activation-checkpointing schedule of an in-core
// replica — the gradient-checkpointing structure (Table I's "RECOMP,
// O(sqrt N)") as a first-class regime rather than an Opt-2 candidate:
// when the stored activations fit the budget the schedule is simply
// all-resident; otherwise the last block stays resident and the prefix
// recomputes during backward from resident boundary checkpoints. The
// checkpoints are placed on block boundaries (for the transformer shards
// of internal/model these are the post-all-reduce residual outputs, so a
// replay never re-runs a finished collective unless its run spans
// several blocks), and the run count is the largest that fits — as many
// boundaries as memory allows, degrading toward the O(sqrt N) optimum as
// the budget tightens. The in-core hybrid baselines (Megatron MP+DP,
// ZeRO) use this to reach the larger capacity batches real deployments
// train at.
func Checkpoint(p *profiler.Profile, budget unit.Bytes) (*Schedule, error) {
	s, err := identitySchedule(p, budget)
	if err != nil {
		return nil, err
	}
	if p.TotalActBytes <= budget {
		return s, nil // everything resident; no recompute needed
	}
	k := len(s.Blocks)
	if k < 2 {
		return nil, fmt.Errorf("karma: checkpointed activations need %v of %v", p.TotalActBytes, budget)
	}
	tail := s.Blocks[k-1].Payload()
	// Single scan, largest feasible run count first (most boundaries =
	// least replay); on failure the scan's minimum doubles as the
	// footprint the error reports, so feasibility needs no second pass.
	// Candidates are costed from their cut positions alone; only the
	// winner materializes a schedule.
	cs := newCheckpointSearch(p)
	minNeed := p.TotalActBytes
	for runs := k - 1; runs >= 1; runs-- {
		foot, ok := cs.footprint(runs)
		if !ok {
			continue
		}
		if foot+tail <= budget {
			return cs.materialize(s), nil
		}
		if foot+tail < minNeed {
			minNeed = foot + tail
		}
	}
	return nil, fmt.Errorf("karma: checkpointed activations need %v of %v", minNeed, budget)
}

// CheckpointFootprint returns the smallest peak activation footprint any
// checkpointing schedule of the profile can reach: the minimum over run
// counts of resident boundaries plus the largest replayed run (with one
// extra block of transient replay slack), plus the resident tail — or
// the all-resident footprint if that is smaller. Both dist backends use
// it as the shared capacity verdict for the checkpointed hybrids.
func CheckpointFootprint(p *profiler.Profile) unit.Bytes {
	s, err := identitySchedule(p, unit.Bytes(math.MaxInt64))
	if err != nil {
		return 0
	}
	k := len(s.Blocks)
	best := p.TotalActBytes
	if k < 2 {
		return best
	}
	tail := s.Blocks[k-1].Payload()
	cs := newCheckpointSearch(p)
	for runs := k - 1; runs >= 1; runs-- {
		if foot, ok := cs.footprint(runs); ok {
			if need := foot + tail; need < best {
				best = need
			}
		}
	}
	return best
}

// checkpointSearch is the shared state of the run-count scan: the
// Partitioner over the prefix weights (built once, so its greedy-count
// spans serve every candidate runs count) plus the anchor marks of the
// most recent candidate. Identity blocks carry no weights or gradients,
// so a block's Payload is exactly its profiled ActBytes — the candidate
// footprint is computable from the profile and the cut positions alone,
// without materializing a schedule per runs count.
type checkpointSearch struct {
	p        *profiler.Profile
	r        int // prefix length: blocks [0, r) recompute, block r stays resident
	pt       *solve.Partitioner
	maxBlock unit.Bytes // largest prefix payload (the transient replay slack)
	mark     []bool     // Ckpt anchors of the latest footprint() candidate
	cuts     []int      // scratch cut buffer reused across runs counts
}

func newCheckpointSearch(p *profiler.Profile) *checkpointSearch {
	r := len(p.Blocks) - 1
	cs := &checkpointSearch{p: p, r: r, mark: make([]bool, r)}
	weights := make([]float64, r)
	for i := 0; i < r; i++ {
		pl := p.Blocks[i].ActBytes
		weights[i] = float64(pl) + 1
		if pl > cs.maxBlock {
			cs.maxBlock = pl
		}
	}
	cs.pt, _ = solve.NewPartitioner(weights) // finite, non-negative: cannot fail
	return cs
}

// footprint partitions the prefix into the given number of runs, places
// the boundary checkpoints, and reports the candidate's prefix
// footprint: resident boundary checkpoints plus the largest run plus one
// block of transient slack (a replayed block coexists with its
// consumer's activations while the boundary hand-off completes). The
// anchor marks stay in cs.mark for materialize.
func (cs *checkpointSearch) footprint(runs int) (unit.Bytes, bool) {
	cuts, err := cs.pt.AppendCuts(cs.cuts[:0], runs)
	if err != nil {
		return 0, false
	}
	cs.cuts = cuts
	// A checkpoint must land on a block that physically stores its
	// boundary (see checkpointPrefix); shift left inside the run when the
	// nominal end cannot anchor. Unanchorable runs merge with their
	// successor. The final prefix block never anchors: its boundary feeds
	// the resident suffix, which is never replayed, so a checkpoint there
	// would stay resident forever without a consumer (the leak the
	// FuzzCheckpointSegments corpus pins).
	canAnchor := func(i int) bool {
		return cs.p.Blocks[i].ActBytes >= cs.p.Blocks[i].OutBytes &&
			cs.p.Blocks[i].OutBytes > 0
	}
	for i := range cs.mark {
		cs.mark[i] = false
	}
	start := 0
	for ci := 0; ci <= len(cuts); ci++ {
		end := cs.r
		if ci < len(cuts) {
			end = cuts[ci]
		}
		j := end - 1
		if j == cs.r-1 {
			j--
		}
		for ; j >= start; j-- {
			if canAnchor(j) {
				cs.mark[j] = true
				break
			}
		}
		start = end
	}
	// ckpt + largest run + slack, with a run ending at each anchor (the
	// prefix is one recompute chain, so maxRunBytes reduces to this scan).
	var ckpt, maxRun, cur unit.Bytes
	for i := 0; i < cs.r; i++ {
		cur += cs.p.Blocks[i].ActBytes
		if cur > maxRun {
			maxRun = cur
		}
		if cs.mark[i] {
			ckpt += cs.p.Blocks[i].OutBytes
			cur = 0
		}
	}
	return ckpt + maxRun + cs.maxBlock, true
}

// materialize turns the latest footprint() candidate into a schedule on
// the identity partition s (which it mutates and returns).
func (cs *checkpointSearch) materialize(s *Schedule) *Schedule {
	s.Resident = cs.r
	for i := 0; i < cs.r; i++ {
		s.Blocks[i].Policy = Recompute
		s.Blocks[i].Ckpt = cs.mark[i]
	}
	return s
}

// identitySchedule materializes one planner block per profiled segment,
// all resident (the partition the in-core regimes operate on — no Opt-1
// merge is needed when nothing swaps).
func identitySchedule(p *profiler.Profile, budget unit.Bytes) (*Schedule, error) {
	n := len(p.Blocks)
	if n == 0 {
		return nil, fmt.Errorf("karma: profile has no blocks")
	}
	blocks := make([]Block, n)
	for i := range p.Blocks {
		blocks[i] = Block{Range: [2]int{i, i + 1}, Cost: p.Blocks[i], Policy: Keep}
	}
	opts := Options{}
	opts.normalize()
	return &Schedule{Profile: p, Opts: opts, Blocks: blocks, Resident: 0, Budget: budget}, nil
}
