package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
	"karma/internal/unit"
)

// This file is the cross-backend property harness: a table of seeded
// randomized cluster/model/option configurations runs through both the
// Analytic and Planned evaluators, asserting the contract the package
// documents — infeasible verdicts equal in every field but Backend (the
// backends share one precheck), feasible pairs agreeing on identity and
// checkpointing regime, iteration times within a bounded band, and
// agreement on every ordering the two backends are both confident about. It replaces the earlier hand-picked
// feasibility-agreement loops: every family (KARMA-DP, conventional DP,
// Megatron MP+DP, ZeRO, pipeline) and both precision regimes are drawn
// from one seeded generator, so coverage grows by bumping a count
// instead of curating cases.

// propCase is one randomized configuration.
type propCase struct {
	name   string
	family string // a Config.Family
	memGiB float64
	cfg    model.TransformerConfig
	mp     int // MP ways, or pipeline stages
	gpus   int
	batch  int
	micro  int
	o      HybridOptions
	ko     KARMAOptions
}

// propModel draws a transformer small enough to profile quickly but
// varied enough to cross the in-core/checkpointed/infeasible regimes at
// the drawn memory sizes.
func propModel(r *rand.Rand) model.TransformerConfig {
	hidden := []int{256, 512, 1024}[r.Intn(3)]
	layers := []int{4, 8, 12, 24}[r.Intn(4)]
	seq := []int{128, 256}[r.Intn(2)]
	vocab := []int{4096, 16384}[r.Intn(2)]
	return model.TransformerConfig{
		Name:   fmt.Sprintf("prop-h%d-l%d-s%d-v%d", hidden, layers, seq, vocab),
		Hidden: hidden, Heads: hidden / 64, Layers: layers, Seq: seq, Vocab: vocab,
	}
}

// propCases generates n seeded configurations. The same seed always
// yields the same table, so a failure reproduces by name.
func propCases(n int, seed int64) []propCase {
	r := rand.New(rand.NewSource(seed))
	var out []propCase
	for i := 0; i < n; i++ {
		c := propCase{
			family: families[r.Intn(len(families))],
			memGiB: []float64{4, 8, 16, 32}[r.Intn(4)],
			cfg:    propModel(r),
			mp:     1 << r.Intn(4), // 1..8 ways/stages
			gpus:   []int{8, 16, 64, 256}[r.Intn(4)],
			batch:  1 << r.Intn(6), // 1..32
		}
		c.micro = 1 << r.Intn(4)
		if c.micro > c.batch {
			c.micro = c.batch
		}
		prec := tensor.FP32Training
		if r.Intn(2) == 1 {
			prec = tensor.MixedFP16
		}
		c.o = HybridOptions{
			Phased:     r.Intn(2) == 1,
			Checkpoint: r.Intn(2) == 1,
			Precision:  prec,
		}
		c.ko = KARMAOptions{
			UpdateOnDevice: r.Intn(4) == 0,
			ZeROShard:      r.Intn(2) == 1,
			Precision:      prec,
		}
		c.name = fmt.Sprintf("%s/%s/mem%g/mp%d/g%d/b%d/m%d/ckpt%v/%v",
			c.family, c.cfg.Name, c.memGiB, c.mp, c.gpus, c.batch, c.micro, c.o.Checkpoint, prec)
		out = append(out, c)
	}
	return out
}

// run evaluates the case under one backend through Config.Eval, the
// dispatch request-driven callers use (TestConfigEvalMatchesPositional
// holds it equal to the positional Evaluator methods).
func (c propCase) run(ev Evaluator) (*Result, error) {
	cl := hw.ABCI()
	cl.Node.Device.MemCapacity = unit.Bytes(c.memGiB * float64(unit.GiB))
	cfg := c.cfg
	return Config{
		Family: c.family, Transformer: &cfg, Cluster: cl,
		GPUs: c.gpus, Batch: c.batch, Samples: samples, MP: c.mp, Stages: c.mp, Micro: c.micro,
		Precision: c.o.Precision, Ckpt: c.o.Checkpoint, Phased: c.o.Phased,
		ZeROShard: c.ko.ZeROShard, UpdateOnDevice: c.ko.UpdateOnDevice,
	}.Eval(ev)
}

// propOutcome pairs the two backends' results for the ordering pass.
type propOutcome struct {
	c      propCase
	an, pl *Result
}

// TestBackendProperties is the harness entry point: verdict agreement,
// identical infeasible Results, bounded timing divergence, and pairwise
// ordering agreement within every family.
func TestBackendProperties(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 32
	}
	cases := propCases(n, 20260730)
	an := Analytic{}
	pe := NewPlanned()
	byFamily := map[string][]propOutcome{}
	// One shared precheck: infeasible verdicts are one computation, equal
	// in every field but the backend tag.
	infeasible := 0
	sameInfeasible := func(name string, ra, rp *Result) {
		a, p := *ra, *rp
		a.Backend, p.Backend = "", ""
		if !reflect.DeepEqual(a, p) {
			t.Errorf("%s: infeasible verdicts differ:\n  analytic %+v\n  planned  %+v", name, a, p)
		}
		infeasible++
	}

	for _, c := range cases {
		ra, erra := c.run(an)
		rp, errp := c.run(pe)
		if (erra != nil) != (errp != nil) {
			t.Fatalf("%s: error mismatch: analytic %v, planned %v", c.name, erra, errp)
		}
		if erra != nil {
			continue
		}
		if ra.Feasible != rp.Feasible {
			t.Errorf("%s: feasibility disagrees: analytic %v (%q), planned %v (%q)",
				c.name, ra.Feasible, ra.Reason, rp.Feasible, rp.Reason)
			continue
		}
		if !ra.Feasible {
			sameInfeasible(c.name, ra, rp)
			continue
		}
		if ra.GPUs != rp.GPUs || ra.GlobalBatch != rp.GlobalBatch || ra.Ckpt != rp.Ckpt {
			t.Errorf("%s: identity fields differ: gpus %d/%d batch %d/%d ckpt %v/%v",
				c.name, ra.GPUs, rp.GPUs, ra.GlobalBatch, rp.GlobalBatch, ra.Ckpt, rp.Ckpt)
		}
		ratio := float64(rp.IterTime) / float64(ra.IterTime)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: planned/analytic iteration ratio %.2f outside [0.5, 2.0] (%v vs %v)",
				c.name, ratio, rp.IterTime, ra.IterTime)
		}
		byFamily[c.family] = append(byFamily[c.family], propOutcome{c: c, an: ra, pl: rp})
	}

	// Every case again on a device with a quarter GiB usable, where most
	// verdicts are infeasible, so the shared precheck is pinned in every
	// family.
	for _, c := range cases {
		c.memGiB, c.name = 1.5, c.name+"/tiny"
		ra, erra := c.run(an)
		rp, errp := c.run(pe)
		if (erra != nil) != (errp != nil) {
			t.Fatalf("%s: error mismatch: analytic %v, planned %v", c.name, erra, errp)
		}
		if erra != nil {
			continue
		}
		if ra.Feasible != rp.Feasible {
			t.Errorf("%s: feasibility disagrees: analytic %q, planned %q", c.name, ra.Reason, rp.Reason)
		} else if !ra.Feasible {
			sameInfeasible(c.name, ra, rp)
		}
	}

	// Ordering agreement: wherever both backends separate a pair of
	// configurations by more than 10%, they must rank them identically —
	// the planner refines magnitudes, never flips confident orderings.
	const margin = 1.10
	for fam, outs := range byFamily {
		for i := 0; i < len(outs); i++ {
			for j := i + 1; j < len(outs); j++ {
				a, b := outs[i], outs[j]
				anAB := float64(a.an.IterTime)*margin < float64(b.an.IterTime)
				anBA := float64(b.an.IterTime)*margin < float64(a.an.IterTime)
				plAB := float64(a.pl.IterTime)*margin < float64(b.pl.IterTime)
				plBA := float64(b.pl.IterTime)*margin < float64(a.pl.IterTime)
				if (anAB && plBA) || (anBA && plAB) {
					t.Errorf("%s: ordering flips between backends:\n  %s: analytic %v, planned %v\n  %s: analytic %v, planned %v",
						fam, a.c.name, a.an.IterTime, a.pl.IterTime, b.c.name, b.an.IterTime, b.pl.IterTime)
				}
			}
		}
	}
	for fam, outs := range byFamily {
		t.Logf("%s: %d feasible configurations compared", fam, len(outs))
	}
	t.Logf("%d infeasible verdicts compared", infeasible)
}
