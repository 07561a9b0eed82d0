package dist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

// fuzzConfig builds a Config from raw draws, valid or not: family 5 is
// unknown, and the model selector covers a graph model, a named and an
// explicit transformer, both, and neither. The flag bits select mixed
// precision, Ckpt, Phased, ZeROShard and UpdateOnDevice.
func fuzzConfig(fam, mdl uint8, hidden, nodes, gpus, batch, samples, mp, stages, micro int, flags uint8) Config {
	family := "fsdp" // unknown
	if i := int(fam) % (len(families) + 1); i < len(families) {
		family = families[i]
	}
	cl := hw.ABCI()
	cl.Nodes = nodes
	c := Config{
		Family: family, Cluster: cl, GPUs: gpus, Batch: batch, Samples: samples, MP: mp, Stages: stages, Micro: micro,
		Ckpt: flags&2 != 0, Phased: flags&4 != 0, ZeROShard: flags&8 != 0, UpdateOnDevice: flags&16 != 0,
	}
	if flags&1 != 0 {
		c.Precision = tensor.MixedFP16
	}
	tr := &model.TransformerConfig{Hidden: hidden, Heads: 4, Layers: 2, Seq: 128, Vocab: 1000}
	switch mdl % 5 {
	case 0:
		c.Model = "resnet50"
	case 1:
		c.Model = "megatron-0.3B"
	case 2:
		c.Transformer = tr
	case 3:
		c.Model, c.Transformer = "megatron-0.3B", tr
	}
	return c
}

// checkCanonical holds Canonical's contract on one configuration: an
// error, or a form Canonical returns unchanged in which named
// transformers are expanded, Samples is set and a pipeline's Micro lies
// in [1, Batch].
func checkCanonical(t *testing.T, c Config) {
	t.Helper()
	got, err := c.Canonical()
	if err != nil {
		return
	}
	again, err := got.Canonical()
	if err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("Canonical not idempotent on %+v:\n once  %+v\n twice %+v (%v)", c, got, again, err)
	}
	if _, named := model.TransformerByName(got.Model); named && got.Model != "" {
		t.Fatalf("canonical %+v keeps the transformer name %q", got, got.Model)
	}
	if got.Samples <= 0 {
		t.Fatalf("canonical %+v has samples %d", got, got.Samples)
	}
	if got.Family == "pipeline" && (got.Micro < 1 || got.Micro > got.Batch) {
		t.Fatalf("canonical pipeline %+v: micro %d outside [1, batch %d]", got, got.Micro, got.Batch)
	}
}

// TestConfigCanonicalIdempotent is the property form of FuzzConfigCanonical:
// seeded draws over every family and model selector, with every count
// drawn invalid now and then.
func TestConfigCanonicalIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(20261019))
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	valid := 0
	for i := 0; i < 4000; i++ {
		c := fuzzConfig(uint8(r.Intn(6)), uint8(r.Intn(5)),
			pick(0, 256, 256), pick(-1, 4, 1088, 1088), pick(0, 1, 8, 64, 64), pick(-2, 1, 4, 16, 16),
			pick(-1, 0, 0, 1000), pick(0, 1, 4, 4), pick(-1, 2, 4, 4), pick(-1, 0, 1, 8, 32), uint8(r.Intn(32)))
		checkCanonical(t, c)
		if _, err := c.Canonical(); err == nil {
			valid++
		}
	}
	if valid < 300 {
		t.Fatalf("only %d of the draws were valid; the property is nearly vacuous", valid)
	}
}

// FuzzConfigCanonical: Canonical never panics, and returns an error or
// a form it returns unchanged (checkCanonical). Seeds live in
// testdata/fuzz/FuzzConfigCanonical.
func FuzzConfigCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, fam, mdl uint8, hidden, nodes, gpus, batch, samples, mp, stages, micro int, flags uint8) {
		checkCanonical(t, fuzzConfig(fam, mdl, hidden, nodes, gpus, batch, samples, mp, stages, micro, flags))
	})
}

// TestConfigEvalMatchesPositional: for every family on both backends,
// Config.Eval returns exactly what the matching positional Evaluator
// call returns — the same Result, or the same error.
func TestConfigEvalMatchesPositional(t *testing.T) {
	cl := hw.ABCI()
	tiny := model.TransformerConfig{Name: "cfg-tiny", Hidden: 256, Heads: 4, Layers: 4, Seq: 128, Vocab: 4096}
	mega, _ := model.TransformerByName("megatron-0.3B")
	mixed := tensor.MixedFP16
	for _, ev := range []Evaluator{Analytic{}, NewPlanned()} {
		resnet, err := CachedModel("resnet50")
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			c    Config
			want func() (*Result, error)
		}{
			{Config{Family: "karma-dp", Model: "megatron-0.3B", Cluster: cl, GPUs: 64, Batch: 8, ZeROShard: true, Precision: mixed},
				func() (*Result, error) {
					return ev.KARMADataParallel(CachedTransformer(mega), cl, 64, 8, DefaultSamples, KARMAOptions{ZeROShard: true, Precision: mixed})
				}},
			{Config{Family: "karma-dp", Model: "resnet50", Cluster: cl, GPUs: 16, Batch: 256, Samples: 1000, UpdateOnDevice: true},
				func() (*Result, error) {
					return ev.KARMADataParallel(resnet, cl, 16, 256, 1000, KARMAOptions{UpdateOnDevice: true})
				}},
			{Config{Family: "dp", Model: "resnet50", Cluster: cl, GPUs: 16, Batch: 32},
				func() (*Result, error) { return ev.DataParallel(resnet, cl, 16, 32, DefaultSamples) }},
			{Config{Family: "mp+dp", Transformer: &tiny, Cluster: cl, GPUs: 16, Batch: 4, MP: 2, Phased: true, Ckpt: true},
				func() (*Result, error) {
					return ev.MegatronHybrid(tiny, cl, 2, 16, 4, DefaultSamples, HybridOptions{Phased: true, Checkpoint: true})
				}},
			{Config{Family: "zero", Transformer: &tiny, Cluster: cl, GPUs: 16, Batch: 4, MP: 2, Precision: mixed},
				func() (*Result, error) {
					return ev.ZeRO(tiny, cl, 2, 16, 4, DefaultSamples, HybridOptions{Precision: mixed})
				}},
			{Config{Family: "pipeline", Transformer: &tiny, Cluster: cl, GPUs: 8, Batch: 4, Stages: 2, Ckpt: true},
				func() (*Result, error) {
					return ev.Pipeline(tiny, cl, 2, 8, 4, DefaultMicro(4), DefaultSamples, HybridOptions{Checkpoint: true})
				}},
			{Config{Family: "pipeline", Transformer: &tiny, Cluster: cl, GPUs: 8, Batch: 16, Stages: 4, Micro: 2, Phased: true},
				func() (*Result, error) {
					return ev.Pipeline(tiny, cl, 4, 8, 16, 2, DefaultSamples, HybridOptions{Phased: true})
				}},
			// An infeasible verdict and an evaluation-time error (the
			// global batch overflows) match too.
			{Config{Family: "dp", Model: "megatron-0.3B", Cluster: cl, GPUs: 8, Batch: 64},
				func() (*Result, error) { return ev.DataParallel(CachedTransformer(mega), cl, 8, 64, DefaultSamples) }},
			{Config{Family: "karma-dp", Transformer: &tiny, Cluster: cl, GPUs: math.MaxInt / 2, Batch: 4},
				func() (*Result, error) {
					return ev.KARMADataParallel(CachedTransformer(tiny), cl, math.MaxInt/2, 4, DefaultSamples, KARMAOptions{})
				}},
		}
		for _, tc := range cases {
			name := fmt.Sprintf("%s/%s/%s%d", ev.Name(), tc.c.Family, tc.c.Model, tc.c.Batch)
			got, gotErr := tc.c.Eval(ev)
			want, wantErr := tc.want()
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s: error %v, positional %v", name, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Eval differs from the positional call:\n Eval       %+v\n positional %+v", name, got, want)
			}
		}
	}
	if _, err := (Config{Family: "dp", Model: "gpt-5", Cluster: cl, GPUs: 8, Batch: 8}).Eval(Analytic{}); err == nil {
		t.Error("an unknown graph model must fail at evaluation")
	}
}
