package nn

import (
	"math"
	"testing"
)

// mlp builds a small deterministic MLP classifier.
func mlp(seed uint64) *Sequential {
	r := NewRNG(seed)
	return NewSequential(
		NewDense("fc1", 16, 32, r),
		NewReLU("relu1"),
		NewDense("fc2", 32, 32, r),
		NewReLU("relu2"),
		NewDense("fc3", 32, 4, r),
	)
}

// cnn builds a small deterministic conv classifier.
func cnn(seed uint64) *Sequential {
	r := NewRNG(seed)
	return NewSequential(
		NewConv2D("conv1", 1, 4, 3, 1, r),
		NewReLU("relu1"),
		NewConv2D("conv2", 4, 8, 3, 1, r),
		NewReLU("relu2"),
		NewFlatten("flatten"),
		NewDense("fc", 8*8*8, 4, r),
	)
}

// synth generates a deterministic synthetic classification batch: the
// label is a simple function of the input so the task is learnable.
func synth(r *RNG, batch, features, classes int) (*Tensor, []int) {
	x := NewTensor(batch, features)
	labels := make([]int, batch)
	for b := 0; b < batch; b++ {
		var sum float32
		for f := 0; f < features; f++ {
			v := r.Normalish()
			x.Data[b*features+f] = v
			if f%2 == 0 {
				sum += v
			} else {
				sum -= v
			}
		}
		switch {
		case sum > 1:
			labels[b] = 0
		case sum > 0:
			labels[b] = 1
		case sum > -1:
			labels[b] = 2
		default:
			labels[b] = 3
		}
	}
	return x, labels
}

func synthImages(r *RNG, batch int) (*Tensor, []int) {
	x := NewTensor(batch, 1, 8, 8)
	labels := make([]int, batch)
	for b := 0; b < batch; b++ {
		var sum float32
		for i := 0; i < 64; i++ {
			v := r.Normalish()
			x.Data[b*64+i] = v
			sum += v
		}
		labels[b] = int(math.Abs(float64(sum))) % 4
	}
	return x, labels
}

func allKeep(n int) []Policy { return make([]Policy, n) }

const bigArena = int64(1) << 30

// trainSteps runs `steps` optimizer steps and returns final weights plus
// total moved bytes.
func trainSteps(t *testing.T, m *Sequential, policies []Policy, arenaBytes int64, steps int) (losses []float32, moved int64) {
	t.Helper()
	arena := NewArena(arenaBytes)
	e, err := NewExec(m, arena, policies)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	opt := NewSGD(0.05, 0.9)
	data := NewRNG(99)
	for s := 0; s < steps; s++ {
		x, labels := synth(data, 8, 16, 4)
		loss, err := e.Step(x, labels, opt)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		losses = append(losses, loss)
	}
	return losses, arena.Moved()
}

func TestTensorBasics(t *testing.T) {
	a := NewTensor(2, 3)
	if a.Len() != 6 || a.Bytes() != 24 {
		t.Errorf("Len/Bytes wrong: %d/%d", a.Len(), a.Bytes())
	}
	a.Data[0] = 1
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Data[0] = 2
	if a.Equal(b) {
		t.Error("clone aliases original")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds should differ")
	}
}

func TestDenseGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny dense layer.
	r := NewRNG(3)
	d := NewDense("d", 3, 2, r)
	x := NewTensor(1, 3)
	x.Data = []float32{0.5, -0.3, 0.8}
	labels := []int{1}

	run := func() float32 {
		y := d.Forward(x)
		loss, _ := SoftmaxCrossEntropy(y, labels)
		return loss
	}
	// Analytic gradients.
	y := d.Forward(x)
	_, dy := SoftmaxCrossEntropy(y, labels)
	for i := range d.GW.Data {
		d.GW.Data[i] = 0
	}
	d.Backward(dy)
	// Numerical gradients.
	const eps = 1e-3
	for i := 0; i < len(d.W.Data); i++ {
		orig := d.W.Data[i]
		d.W.Data[i] = orig + eps
		up := run()
		d.W.Data[i] = orig - eps
		down := run()
		d.W.Data[i] = orig
		num := (up - down) / (2 * eps)
		if diff := math.Abs(float64(num - d.GW.Data[i])); diff > 5e-3 {
			t.Errorf("dW[%d]: analytic %v vs numeric %v", i, d.GW.Data[i], num)
		}
	}
}

func TestConvGradientCheck(t *testing.T) {
	r := NewRNG(5)
	c := NewConv2D("c", 1, 2, 3, 1, r)
	fl := NewFlatten("f")
	x := NewTensor(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = r.Normalish()
	}
	labels := []int{3}
	run := func() float32 {
		y := fl.Forward(c.Forward(x))
		loss, _ := SoftmaxCrossEntropy(y, labels)
		return loss
	}
	y := fl.Forward(c.Forward(x))
	_, dy := SoftmaxCrossEntropy(y, labels)
	for i := range c.GW.Data {
		c.GW.Data[i] = 0
	}
	c.Backward(fl.Backward(dy))
	const eps = 1e-2
	for i := 0; i < len(c.W.Data); i += 3 {
		orig := c.W.Data[i]
		c.W.Data[i] = orig + eps
		up := run()
		c.W.Data[i] = orig - eps
		down := run()
		c.W.Data[i] = orig
		num := (up - down) / (2 * eps)
		if diff := math.Abs(float64(num - c.GW.Data[i])); diff > 2e-2 {
			t.Errorf("dW[%d]: analytic %v vs numeric %v", i, c.GW.Data[i], num)
		}
	}
}

func TestTrainingLearns(t *testing.T) {
	m := mlp(1)
	losses, _ := trainSteps(t, m, allKeep(len(m.Layers)), bigArena, 60)
	first, last := losses[0], losses[len(losses)-1]
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

// TestOOCSwapBitwiseEquivalence is the §IV-D core claim: swapping
// activations to far memory produces bitwise-identical training.
func TestOOCSwapBitwiseEquivalence(t *testing.T) {
	ref := mlp(1)
	trainSteps(t, ref, allKeep(len(ref.Layers)), bigArena, 20)

	ooc := mlp(1)
	policies := []Policy{Swap, Swap, Swap, Swap, Keep}
	_, moved := trainSteps(t, ooc, policies, bigArena, 20)
	if moved == 0 {
		t.Fatal("swap policy moved no bytes; the OOC path did not execute")
	}
	refP, oocP := ref.Params(), ooc.Params()
	for i := range refP {
		if !refP[i].Equal(oocP[i]) {
			t.Fatalf("parameter %d differs between in-core and out-of-core", i)
		}
	}
}

// TestOOCRecomputeBitwiseEquivalence: dropping + replaying activations is
// also exact.
func TestOOCRecomputeBitwiseEquivalence(t *testing.T) {
	ref := mlp(1)
	trainSteps(t, ref, allKeep(len(ref.Layers)), bigArena, 20)

	re := mlp(1)
	policies := []Policy{Keep, Recompute, Recompute, Recompute, Keep}
	trainSteps(t, re, policies, bigArena, 20)
	refP, reP := ref.Params(), re.Params()
	for i := range refP {
		if !refP[i].Equal(reP[i]) {
			t.Fatalf("parameter %d differs between in-core and recompute", i)
		}
	}
}

// TestOOCMixedPolicyEquivalence mixes swap and recompute (the KARMA
// interleave) and still matches bitwise.
func TestOOCMixedPolicyEquivalence(t *testing.T) {
	ref := mlp(1)
	trainSteps(t, ref, allKeep(len(ref.Layers)), bigArena, 15)

	mixed := mlp(1)
	policies := []Policy{Swap, Recompute, Swap, Recompute, Keep}
	trainSteps(t, mixed, policies, bigArena, 15)
	refP, mp := ref.Params(), mixed.Params()
	for i := range refP {
		if !refP[i].Equal(mp[i]) {
			t.Fatalf("parameter %d differs for the mixed policy", i)
		}
	}
}

func TestCNNOOCEquivalence(t *testing.T) {
	run := func(policies []Policy) *Sequential {
		m := cnn(11)
		arena := NewArena(bigArena)
		e, err := NewExec(m, arena, policies)
		if err != nil {
			t.Fatalf("NewExec: %v", err)
		}
		opt := NewSGD(0.01, 0.9)
		data := NewRNG(42)
		for s := 0; s < 8; s++ {
			x, labels := synthImages(data, 4)
			if _, err := e.Step(x, labels, opt); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
		return m
	}
	ref := run(allKeep(6))
	ooc := run([]Policy{Swap, Recompute, Swap, Recompute, Swap, Keep})
	refP, oocP := ref.Params(), ooc.Params()
	for i := range refP {
		if !refP[i].Equal(oocP[i]) {
			t.Fatalf("cnn parameter %d differs", i)
		}
	}
}

// TestCapacityEnforced: training beyond near memory without an OOC policy
// must fail; with swapping it must succeed in the same arena.
func TestCapacityEnforced(t *testing.T) {
	m := mlp(1)
	// Chain tensors at batch 8: 16,32,32,32,32,4 floats wide.
	// All-keep needs all of them; swapping trims the peak.
	arena := NewArena(2200) // bytes: deliberately tight
	e, err := NewExec(m, arena, allKeep(len(m.Layers)))
	if err != nil {
		t.Fatal(err)
	}
	data := NewRNG(2)
	x, labels := synth(data, 8, 16, 4)
	if _, err := e.ForwardBackward(x, labels); err == nil {
		t.Fatal("in-core training should exhaust a tight arena")
	}

	m2 := mlp(1)
	arena2 := NewArena(2200)
	e2, err := NewExec(m2, arena2, []Policy{Swap, Swap, Swap, Swap, Keep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ForwardBackward(x, labels); err != nil {
		t.Fatalf("swapping should fit the same arena: %v", err)
	}
	if arena2.Moved() == 0 {
		t.Error("no swap traffic recorded")
	}
}

func TestExecValidation(t *testing.T) {
	m := mlp(1)
	if _, err := NewExec(m, NewArena(1), []Policy{Keep}); err == nil {
		t.Error("policy count mismatch should error")
	}
	bad := make([]Policy, len(m.Layers))
	bad[0] = Recompute
	if _, err := NewExec(m, NewArena(1), bad); err == nil {
		t.Error("recompute on layer 0 should error")
	}
	bad2 := make([]Policy, len(m.Layers))
	bad2[1] = Policy(9)
	if _, err := NewExec(m, NewArena(1), bad2); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestArenaAccounting(t *testing.T) {
	a := NewArena(100)
	x := NewTensor(10) // 40 bytes
	if err := a.Hold(x); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 40 {
		t.Errorf("used = %d", a.Used())
	}
	y := NewTensor(20) // 80 bytes: exceeds remaining 60
	if err := a.Hold(y); err == nil {
		t.Error("over-capacity hold should fail")
	}
	a.Evict(x)
	if a.Used() != 0 || x.Data != nil || !a.InFar(x) {
		t.Error("evict should free near memory and null the buffer")
	}
	if err := a.Hold(y); err != nil {
		t.Fatalf("hold after evict: %v", err)
	}
	a.Release(y)
	if err := a.Fetch(x); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if x.Data == nil || !a.Resident(x) {
		t.Error("fetch should restore the buffer")
	}
	if a.Moved() != 80 {
		t.Errorf("moved = %d, want 80 (one round trip)", a.Moved())
	}
}

func TestArenaMisuse(t *testing.T) {
	a := NewArena(100)
	x := NewTensor(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("evicting unheld tensor should panic")
			}
		}()
		a.Evict(x)
	}()
	if err := a.Fetch(x); err == nil {
		t.Error("fetching a tensor not in far memory should error")
	}
}

// TestDataParallelMatchesSequentialReference: the multi-worker trainer
// (phased exchange + host update) must produce bitwise-identical weights
// to a single-threaded reference performing the same per-worker passes
// and the same ordered reduction.
func TestDataParallelMatchesSequentialReference(t *testing.T) {
	const workers, steps, batch = 4, 10, 4
	batchFn := func(step, worker int) (*Tensor, []int) {
		r := NewRNG(uint64(1000 + step*workers + worker))
		return synth(r, batch, 16, 4)
	}

	// Parallel run.
	master := mlp(1)
	replicas := make([]*Sequential, workers)
	for w := range replicas {
		replicas[w] = mlp(uint64(50 + w)) // weights overwritten each step
	}
	_, err := TrainDataParallel(master, replicas, steps, batchFn, ParallelConfig{
		Workers: workers, ArenaBytes: bigArena,
		Policies: []Policy{Swap, Swap, Swap, Swap, Keep},
		LR:       0.05, Momentum: 0.9,
	})
	if err != nil {
		t.Fatalf("TrainDataParallel: %v", err)
	}

	// Sequential reference.
	ref := mlp(1)
	shadow := mlp(2)
	opt := NewSGD(0.05, 0.9)
	for step := 0; step < steps; step++ {
		perWorker := make([][]*Tensor, workers)
		for w := 0; w < workers; w++ {
			shadow.CloneWeightsFrom(ref)
			arena := NewArena(bigArena)
			e, err := NewExec(shadow, arena, allKeep(len(shadow.Layers)))
			if err != nil {
				t.Fatal(err)
			}
			x, labels := batchFn(step, w)
			if _, err := e.ForwardBackward(x, labels); err != nil {
				t.Fatal(err)
			}
			gs := shadow.Grads()
			cl := make([]*Tensor, len(gs))
			for i, g := range gs {
				cl[i] = g.Clone()
			}
			perWorker[w] = cl
		}
		// Reduce in worker order, average, update.
		inv := 1 / float32(workers)
		avg := make([]*Tensor, len(perWorker[0]))
		for gi := range avg {
			sum := perWorker[0][gi].Clone()
			for w := 1; w < workers; w++ {
				for j, v := range perWorker[w][gi].Data {
					sum.Data[j] += v
				}
			}
			for j := range sum.Data {
				sum.Data[j] *= inv
			}
			avg[gi] = sum
		}
		opt.Step(ref.Params(), avg)
	}

	mp, rp := master.Params(), ref.Params()
	for i := range mp {
		if !mp[i].Equal(rp[i]) {
			t.Fatalf("parameter %d: parallel differs from sequential reference", i)
		}
	}
}

func TestDataParallelLearns(t *testing.T) {
	const workers = 2
	master := mlp(3)
	replicas := []*Sequential{mlp(4), mlp(5)}
	// Fixed per-worker batches: loss must fall when memorizing.
	batchFn := func(step, worker int) (*Tensor, []int) {
		r := NewRNG(uint64(7000 + worker))
		return synth(r, 8, 16, 4)
	}
	losses, err := TrainDataParallel(master, replicas, 40, batchFn, ParallelConfig{
		Workers: workers, ArenaBytes: bigArena,
		Policies: allKeep(len(master.Layers)),
		LR:       0.05, Momentum: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("parallel training did not learn: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestDataParallelValidation(t *testing.T) {
	m := mlp(1)
	if _, err := TrainDataParallel(m, nil, 1, nil, ParallelConfig{Workers: 1}); err == nil {
		t.Error("replica count mismatch should error")
	}
	if _, err := TrainDataParallel(m, []*Sequential{mlp(2)}, 1, nil, ParallelConfig{
		Workers: 1, Policies: []Policy{Keep},
	}); err == nil {
		t.Error("policy count mismatch should error")
	}
}

func TestSoftmaxCrossEntropyBasics(t *testing.T) {
	logits := NewTensor(1, 3)
	logits.Data = []float32{0, 0, 0}
	loss, grad := SoftmaxCrossEntropy(logits, []int{1})
	if math.Abs(float64(loss)-math.Log(3)) > 1e-5 {
		t.Errorf("uniform loss = %v, want ln 3", loss)
	}
	// Gradient sums to zero per row.
	var sum float32
	for _, v := range grad.Data {
		sum += v
	}
	if math.Abs(float64(sum)) > 1e-6 {
		t.Errorf("softmax grad row sum = %v", sum)
	}
}

func TestSGDMomentum(t *testing.T) {
	p := NewTensor(1)
	p.Data[0] = 1
	g := NewTensor(1)
	g.Data[0] = 1
	opt := NewSGD(0.1, 0.5)
	opt.Step([]*Tensor{p}, []*Tensor{g})
	// v=1, w = 1 - 0.1 = 0.9
	if p.Data[0] != 0.9 {
		t.Errorf("after step 1: %v", p.Data[0])
	}
	opt.Step([]*Tensor{p}, []*Tensor{g})
	// v = 0.5 + 1 = 1.5; w = 0.9 - 0.15 = 0.75
	if math.Abs(float64(p.Data[0])-0.75) > 1e-7 {
		t.Errorf("after step 2: %v", p.Data[0])
	}
}

// TestConvChainOOCEquivalence: a conv chain whose recomputed run spans
// a ReLU into the next convolution stays bitwise identical under mixed
// out-of-core policies.
func TestConvChainOOCEquivalence(t *testing.T) {
	build := func(seed uint64) *Sequential {
		r := NewRNG(seed)
		return NewSequential(
			NewConv2D("conv1", 1, 4, 3, 1, r),
			NewReLU("relu1"),
			NewConv2D("conv2", 4, 8, 3, 1, r),
			NewFlatten("flatten"),
			NewDense("fc", 8*8*8, 4, r),
		)
	}
	run := func(policies []Policy) *Sequential {
		m := build(21)
		e, err := NewExec(m, NewArena(bigArena), policies)
		if err != nil {
			t.Fatal(err)
		}
		opt := NewSGD(0.02, 0.9)
		data := NewRNG(33)
		for s := 0; s < 10; s++ {
			x := NewTensor(3, 1, 8, 8)
			labels := make([]int, 3)
			for i := range x.Data {
				x.Data[i] = data.Normalish()
			}
			for b := range labels {
				labels[b] = data.Intn(4)
			}
			if _, err := e.Step(x, labels, opt); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	ref := run(allKeep(5))
	ooc := run([]Policy{Swap, Recompute, Recompute, Swap, Keep})
	rp, op := ref.Params(), ooc.Params()
	for i := range rp {
		if !rp[i].Equal(op[i]) {
			t.Fatalf("conv chain parameter %d differs under OOC", i)
		}
	}
}
