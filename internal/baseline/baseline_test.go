package baseline

import (
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/profiler"
)

func prof(t testing.TB, name string, batch int) *profiler.Profile {
	t.Helper()
	g, err := model.Build(name)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p, err := profiler.New(g, hw.ABCINode(), profiler.Options{Batch: batch})
	if err != nil {
		t.Fatalf("profiler: %v", err)
	}
	return p
}

func run(t *testing.T, m Method, p *profiler.Profile) *Result {
	t.Helper()
	r, err := Run(m, p)
	if err != nil {
		t.Fatalf("Run(%s): %v", m, err)
	}
	return r
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Run(Method("nope"), prof(t, "smallcnn", 1)); err == nil {
		t.Error("unknown method should error")
	}
}

func TestInCoreFeasibility(t *testing.T) {
	small := prof(t, "resnet50", 128)
	r := run(t, InCore, small)
	if !r.Feasible {
		t.Fatalf("batch 128 should be in-core feasible: %s", r.Reason)
	}
	if r.IterTime <= 0 || r.Throughput <= 0 {
		t.Errorf("bad result %+v", r)
	}
	big := prof(t, "resnet50", 256)
	r = run(t, InCore, big)
	if r.Feasible {
		t.Error("batch 256 must be in-core infeasible (Fig. 5)")
	}
	if r.Reason == "" {
		t.Error("infeasible result must carry a reason")
	}
}

func TestAllMethodsRunOutOfCore(t *testing.T) {
	p := prof(t, "resnet50", 256)
	for _, m := range []Method{VDNNPP, OocCuDNN, SuperNeurons, Checkmate, GradCkpt, KARMA, KARMARecompute} {
		r := run(t, m, p)
		if !r.Feasible {
			t.Errorf("%s: infeasible at batch 256: %s", m, r.Reason)
			continue
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: zero throughput", m)
		}
		if r.Occupancy <= 0 || r.Occupancy > 1 {
			t.Errorf("%s: occupancy %v out of range", m, r.Occupancy)
		}
	}
}

func TestKARMABeatsEagerSwappers(t *testing.T) {
	// The headline single-GPU claim (Fig. 5): KARMA's capacity-based
	// schedule outperforms the eager out-of-core methods, and recompute
	// interleaving helps further.
	for _, cfg := range []struct {
		model string
		batch int
	}{
		{"resnet50", 384},
		{"resnet200", 16},
	} {
		p := prof(t, cfg.model, cfg.batch)
		vdnn := run(t, VDNNPP, p)
		karmaR := run(t, KARMARecompute, p)
		if !vdnn.Feasible || !karmaR.Feasible {
			t.Fatalf("%s/%d: unexpected infeasibility (vdnn=%v karma=%v)",
				cfg.model, cfg.batch, vdnn.Reason, karmaR.Reason)
		}
		if karmaR.Throughput < vdnn.Throughput {
			t.Errorf("%s/%d: KARMA w/recompute (%.1f samples/s) loses to vDNN++ (%.1f)",
				cfg.model, cfg.batch, karmaR.Throughput, vdnn.Throughput)
		}
	}
}

func TestOocCuDNNSlowerThanVDNN(t *testing.T) {
	// No prefetching must not be faster than one-block prefetching.
	p := prof(t, "resnet50", 384)
	ooc := run(t, OocCuDNN, p)
	vdnn := run(t, VDNNPP, p)
	if !ooc.Feasible || !vdnn.Feasible {
		t.Fatal("both should be feasible")
	}
	if ooc.Throughput > vdnn.Throughput {
		t.Errorf("ooc_cudnn (%.1f) beat vDNN++ (%.1f)", ooc.Throughput, vdnn.Throughput)
	}
}

func TestVDNNStallsAtTransition(t *testing.T) {
	// Fig. 2a / Fig. 6: the eager strategy's first backward op waits for
	// the last block's round trip; KARMA's does not.
	p := prof(t, "resnet200", 12)
	vdnn := run(t, VDNNPP, p)
	if !vdnn.Feasible {
		t.Fatalf("vdnn infeasible: %s", vdnn.Reason)
	}
	if len(vdnn.BwdTrace) == 0 {
		t.Fatal("no trace")
	}
	if vdnn.BwdTrace[0].Stall <= 0 {
		t.Error("vDNN++ first backward should stall on the last block's swap-in")
	}
	k := run(t, KARMARecompute, p)
	if len(k.BwdTrace) == 0 {
		t.Fatal("no karma trace")
	}
	if k.BwdTrace[0].Stall > 0 {
		t.Errorf("KARMA first backward stalled %v; resident tail should prevent this", k.BwdTrace[0].Stall)
	}
}

func TestCheckmatePureRecomputeAddsCompute(t *testing.T) {
	// Pure recompute must be feasible out-of-core and strictly slower per
	// sample than in-core at the same batch (it adds redundant compute).
	inCore := prof(t, "resnet50", 128)
	ic := run(t, InCore, inCore)
	p := prof(t, "resnet50", 256)
	cm := run(t, Checkmate, p)
	if !cm.Feasible {
		t.Fatalf("checkmate infeasible: %s", cm.Reason)
	}
	if cm.Throughput > ic.Throughput {
		t.Errorf("checkmate (%.1f samples/s) should not beat in-core (%.1f)",
			cm.Throughput, ic.Throughput)
	}
}

func TestGradCkptFeasibleDeepModel(t *testing.T) {
	p := prof(t, "resnet200", 16)
	r := run(t, GradCkpt, p)
	if !r.Feasible {
		t.Fatalf("sqrt(N) checkpointing infeasible: %s", r.Reason)
	}
}

func TestMethodsListOrder(t *testing.T) {
	ms := Methods()
	if len(ms) != 6 || ms[0] != InCore || ms[len(ms)-1] != KARMARecompute {
		t.Errorf("Methods() = %v", ms)
	}
}

func TestPeakMemWithinDevice(t *testing.T) {
	p := prof(t, "resnet50", 512)
	for _, m := range []Method{VDNNPP, SuperNeurons, Checkmate, KARMA, KARMARecompute} {
		r := run(t, m, p)
		if !r.Feasible {
			continue
		}
		if r.PeakMem > p.Node.Device.UsableMem() {
			t.Errorf("%s: peak %v exceeds device usable %v", m, r.PeakMem, p.Node.Device.UsableMem())
		}
	}
}
