package karma

import (
	"fmt"
	"sync"

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
//
// Checkpoint is one Fit of a fresh CheckpointScan; a caller probing the
// same profile under many budgets keeps the scan instead.
func Checkpoint(p *profiler.Profile, budget unit.Bytes) (*Schedule, error) {
	return NewCheckpointScan(p).Fit(budget)
}

// CheckpointFootprint returns the smallest peak activation footprint any
// checkpointing schedule of the profile can reach: the minimum over run
// counts of resident boundaries plus the largest replayed run (with one
// extra block of transient replay slack), plus the resident tail — or
// the all-resident footprint if that is smaller. It is the Min of a
// fresh CheckpointScan.
func CheckpointFootprint(p *profiler.Profile) unit.Bytes {
	return NewCheckpointScan(p).Min()
}

// CheckpointScan is the checkpointed regime of one profile kept across
// budgets: the run-count scan's table of footprints (prefix plus
// resident tail, one entry per run count probed, from the most runs
// downward), extended only as far as a budget needs. A capacity search
// asks the same profile under many budgets — ZeRO's budget changes with
// the GPU count — and each Fit reads the table instead of re-costing the
// run counts an earlier budget already costed. Fit and Min are safe for
// concurrent use; the dist evaluators share one scan per shard profile.
type CheckpointScan struct {
	p *profiler.Profile

	mu   sync.Mutex
	cs   *checkpointSearch // built on the first probe
	need []unit.Bytes      // need[i] is the footprint of runs = k-1-i
	min  unit.Bytes        // p.TotalActBytes, then the minimum over need
}

// NewCheckpointScan returns an empty scan of p; nothing is probed until
// a budget needs it.
func NewCheckpointScan(p *profiler.Profile) *CheckpointScan {
	return &CheckpointScan{p: p, min: p.TotalActBytes}
}

// Fit returns Checkpoint's schedule for the budget: all-resident when
// the activations fit, otherwise the largest run count whose footprint
// fits, or an error carrying the scan's minimum. Probes happen only past
// the end of the table, plus one re-probe of the winning count to place
// its anchors. Each call returns a fresh schedule.
func (sc *CheckpointScan) Fit(budget unit.Bytes) (*Schedule, error) {
	p := sc.p
	k := len(p.Blocks)
	if k == 0 || p.TotalActBytes <= budget {
		return identitySchedule(p, budget) // no blocks (an error), or everything resident
	}
	if k < 2 {
		return nil, fmt.Errorf("karma: checkpointed activations need %v of %v", p.TotalActBytes, budget)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	// Largest feasible run count first (most boundaries = least replay);
	// on failure the table is complete and its minimum is the footprint
	// the error reports.
	for i := 0; sc.extend(i); i++ {
		if sc.need[i] <= budget {
			s, _ := identitySchedule(p, budget)
			return sc.materialize(k-1-i, s), nil
		}
	}
	return nil, fmt.Errorf("karma: checkpointed activations need %v of %v", sc.min, budget)
}

// Min returns CheckpointFootprint(p), completing the table if a budget
// has not already done so.
func (sc *CheckpointScan) Min() unit.Bytes {
	if len(sc.p.Blocks) == 0 {
		return 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i := len(sc.need); sc.extend(i); i++ {
	}
	return sc.min
}

// extend makes sc.need[i] available, probing runs = k-1-i when the table
// ends at i; it reports false when i is past the last run count. The
// caller holds sc.mu and walks i upward from the table's end or below.
func (sc *CheckpointScan) extend(i int) bool {
	if i < len(sc.need) {
		return true
	}
	k := len(sc.p.Blocks)
	if i >= k-1 {
		return false
	}
	if sc.cs == nil {
		sc.cs = newCheckpointSearch(sc.p)
		sc.need = make([]unit.Bytes, 0, k-1)
	}
	need := sc.cs.footprint(k-1-i) + sc.cs.tail
	sc.min = min(sc.min, need)
	sc.need = append(sc.need, need)
	return true
}

// materialize turns the runs-count candidate into a schedule on the
// identity partition s (which it mutates and returns), re-probing the
// count to place its anchors in cs.mark. The caller holds sc.mu.
func (sc *CheckpointScan) materialize(runs int, s *Schedule) *Schedule {
	cs := sc.cs
	cs.footprint(runs)
	s.Resident = cs.r
	for i := 0; i < cs.r; i++ {
		s.Blocks[i].Policy = Recompute
		s.Blocks[i].Ckpt = cs.mark[i]
	}
	return s
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
	tail     unit.Bytes // the resident last block's payload
	mark     []bool     // Ckpt anchors of the latest footprint() candidate
	cuts     []int      // scratch cut buffer reused across runs counts
}

func newCheckpointSearch(p *profiler.Profile) *checkpointSearch {
	r := len(p.Blocks) - 1
	cs := &checkpointSearch{p: p, r: r, mark: make([]bool, r), tail: p.Blocks[r].ActBytes}
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
// anchor marks stay in cs.mark for CheckpointScan.materialize.
func (cs *checkpointSearch) footprint(runs int) unit.Bytes {
	cuts, _ := cs.pt.AppendCuts(cs.cuts[:0], runs) // 1 <= runs <= r: cannot fail
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
	return ckpt + maxRun + cs.maxBlock
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
