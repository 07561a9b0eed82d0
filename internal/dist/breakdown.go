package dist

import (
	"sort"

	"karma/internal/plan"
	"karma/internal/sim"
	"karma/internal/unit"
)

// StreamBusy is the informational per-stream busy time of one iteration:
// how long each hardware stream executed work, regardless of overlap.
// Streams run concurrently, so these do NOT sum to IterTime — the
// critical-path components of Breakdown do.
type StreamBusy struct {
	// Compute is device math (forward, backward, recompute, GPU update).
	Compute unit.Seconds `json:"compute_s"`
	// H2D and D2H are the swap copies over the host link.
	H2D unit.Seconds `json:"h2d_s"`
	D2H unit.Seconds `json:"d2h_s"`
	// Host is CPU-side compute (host weight updates).
	Host unit.Seconds `json:"host_s"`
	// Network is inter-node collective traffic; NVLink intra-node.
	Network unit.Seconds `json:"network_s"`
	NVLink  unit.Seconds `json:"nvlink_s"`
}

// Breakdown attributes one iteration's critical path: the seven
// component fields partition IterTime exactly (the reconciliation the
// property tests pin for every family, backend and precision), so every
// verdict explains *where* its time goes — the paper's decomposition
// argument (Fig. 2/3) as data. Busy adds the per-stream view (overlapping,
// so informational), and Occupancy is the paper's Eq. (1) compute-stream
// occupancy.
type Breakdown struct {
	// Compute is forward+backward device math on the critical path.
	Compute unit.Seconds `json:"compute_s"`
	// Recompute is redundant forward work (Opt-2 drops, checkpoint replay).
	Recompute unit.Seconds `json:"recompute_s"`
	// SwapStall is swap-copy time not hidden under compute.
	SwapStall unit.Seconds `json:"swap_stall_s"`
	// ExchangeStall is data-parallel gradient-exchange exposure.
	ExchangeStall unit.Seconds `json:"exchange_stall_s"`
	// Collective is blocking model-parallel collective exposure.
	Collective unit.Seconds `json:"collective_s"`
	// Bubble is pipeline fill/drain and stage-boundary wire exposure,
	// plus idle the other categories cannot explain.
	Bubble unit.Seconds `json:"bubble_s"`
	// Update is optimizer-step time on the critical path (device update
	// plus host-update stall).
	Update unit.Seconds `json:"update_s"`

	Busy      StreamBusy `json:"busy"`
	Occupancy float64    `json:"occupancy"`
}

// Components sums the critical-path attribution; it reconciles with
// Result.IterTime by construction in both backends.
func (b *Breakdown) Components() unit.Seconds {
	return b.Compute + b.Recompute + b.SwapStall + b.ExchangeStall +
		b.Collective + b.Bubble + b.Update
}

// withOccupancy derives the analytic occupancy proxy (compute-stream
// busy over the iteration) and returns the breakdown for attachment.
func (b *Breakdown) withOccupancy(iter unit.Seconds) *Breakdown {
	if iter > 0 {
		b.Occupancy = float64(b.Busy.Compute) / float64(iter)
		if b.Occupancy > 1 {
			b.Occupancy = 1
		}
	}
	return b
}

// coverCat classifies non-compute plan ops for idle attribution, in
// priority order: a compute-stream gap overlapped by a swap copy is a
// swap stall before it is anything else, then blocking collectives, the
// data-parallel exchange, the host update, and stage-boundary wires.
type coverCat int

const (
	coverSwap coverCat = iota
	coverCollective
	coverExchange
	coverHost
	coverWire
	numCoverCats
)

// coverCatOf maps a plan op kind to its idle-attribution category.
func coverCatOf(k plan.Kind) (coverCat, bool) {
	switch k {
	case plan.SwapIn, plan.SwapOut:
		return coverSwap, true
	case plan.MPAllReduce, plan.MPAllReduceLocal, plan.ParamGather:
		return coverCollective, true
	case plan.GradExchange:
		return coverExchange, true
	case plan.UpdateCPU:
		return coverHost, true
	case plan.Send, plan.Recv, plan.SendLocal, plan.RecvLocal:
		return coverWire, true
	}
	return 0, false
}

// span is one interval of a simulated timeline.
type span struct{ start, end unit.Seconds }

// cover is a non-compute op's busy span and its attribution category.
type cover struct {
	span
	cat coverCat
}

// breakdownBuf is timelineBreakdown's working storage, reused across
// calls (planScratch holds one).
type breakdownBuf struct {
	gaps    []span
	covers  []cover
	overlap [][numCoverCats]unit.Seconds
}

// timelineBreakdown derives the critical-path attribution from one
// simulated plan: its ops, the plan kind of each, and its timeline.
// Compute-stream busy time classifies by op kind
// (forward/backward, recompute, GPU update); compute-stream idle over
// [0, Makespan] attributes greedily by what overlapped it, in coverCat
// priority order, and the residual no stream explains is bubble. The
// components sum to the makespan exactly by construction — what makes
// the reconciliation property test meaningful is that the planned and
// analytic paths must agree through two entirely different derivations.
func timelineBreakdown(ops []sim.Op, kindOf func(i int) plan.Kind, tl *sim.Timeline, buf *breakdownBuf) *Breakdown {
	b := &Breakdown{
		Busy: StreamBusy{
			Compute: tl.Busy[sim.Compute],
			H2D:     tl.Busy[sim.H2D],
			D2H:     tl.Busy[sim.D2H],
			Host:    tl.Busy[sim.HostCPU],
			Network: tl.Busy[sim.Network],
			NVLink:  tl.Busy[sim.NVLink],
		},
		Occupancy: tl.Occupancy(ops),
	}

	// Compute-stream gaps over [0, Makespan]. Stream queues are FIFO, so
	// compute ops run serially in submission order and one pass yields
	// the classified busy time and the ordered idle gaps.
	gaps := buf.gaps[:0]
	cursor := unit.Seconds(0)
	covers := buf.covers[:0]
	for i := range ops {
		r := tl.Ops[i]
		kind := kindOf(i)
		if ops[i].Stream != sim.Compute {
			if cat, ok := coverCatOf(kind); ok && r.End > r.Start {
				covers = append(covers, cover{span{r.Start, r.End}, cat})
			}
			continue
		}
		if r.Start > cursor {
			gaps = append(gaps, span{cursor, r.Start})
		}
		if r.End > cursor {
			cursor = r.End
		}
		switch kind {
		case plan.Recompute:
			b.Recompute += r.End - r.Start
		case plan.UpdateGPU:
			b.Update += r.End - r.Start
		default: // Fwd, Bwd
			b.Compute += r.End - r.Start
		}
	}
	if tl.Makespan > cursor {
		gaps = append(gaps, span{cursor, tl.Makespan})
	}

	// Per-gap overlap with each category: covers sorted by start, then a
	// two-pointer sweep (gaps are already ordered) touches only the
	// intersecting pairs.
	sort.Slice(covers, func(i, j int) bool { return covers[i].start < covers[j].start })
	overlap := resized(buf.overlap, len(gaps))
	buf.gaps, buf.covers, buf.overlap = gaps, covers, overlap
	gi := 0
	for _, cv := range covers {
		for gi < len(gaps) && gaps[gi].end <= cv.start {
			gi++
		}
		for j := gi; j < len(gaps) && gaps[j].start < cv.end; j++ {
			lo, hi := gaps[j].start, gaps[j].end
			if cv.start > lo {
				lo = cv.start
			}
			if cv.end < hi {
				hi = cv.end
			}
			if hi > lo {
				overlap[j][cv.cat] += hi - lo
			}
		}
	}

	// Greedy attribution: each category claims up to its overlap with the
	// gap, in priority order, so the gap total — and with it the makespan
	// — is conserved exactly even where covers overlap each other.
	for j, g := range gaps {
		remaining := g.end - g.start
		for cat := coverSwap; cat < numCoverCats; cat++ {
			t := overlap[j][cat]
			if t > remaining {
				t = remaining
			}
			remaining -= t
			switch cat {
			case coverSwap:
				b.SwapStall += t
			case coverCollective:
				b.Collective += t
			case coverExchange:
				b.ExchangeStall += t
			case coverHost:
				b.Update += t
			case coverWire:
				b.Bubble += t
			}
		}
		b.Bubble += remaining
	}
	return b
}
