package dist

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"karma/internal/graph"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
)

// DefaultSamples is the epoch sample count of a configuration that names
// none: Table III's OpenWebText set, which every Fig. 8 and Table IV
// panel trains on.
const DefaultSamples = 7_200_000

// DefaultMicro is the pipeline micro-batch count of a configuration that
// names none: 8, clamped to the per-replica batch.
func DefaultMicro(batch int) int { return min(8, batch) }

// families lists the accepted Config.Family values.
var families = []string{"karma-dp", "dp", "mp+dp", "zero", "pipeline"}

// Config is one distributed-training configuration: one model on one
// cluster under one parallelism family. Canonical validates it and fills
// its defaults; Eval costs it on an Evaluator.
type Config struct {
	// Family is "karma-dp", "dp", "mp+dp", "zero" or "pipeline".
	Family string
	// Model is a registry name: a named graph model (model.Build) or a
	// named transformer (model.TransformerByName). Exactly one of Model
	// and Transformer is set; mp+dp, zero and pipeline need a transformer.
	Model       string
	Transformer *model.TransformerConfig
	Cluster     hw.Cluster
	// GPUs is the total device count, Batch the per-replica mini-batch,
	// Samples the epoch sample count (0: DefaultSamples).
	GPUs, Batch, Samples int
	// MP is the tensor-parallel degree of mp+dp and zero; Stages and
	// Micro are the pipeline's stage and micro-batch counts (Micro 0:
	// DefaultMicro; never above Batch).
	MP, Stages, Micro int
	// Precision is the training regime of every family.
	Precision tensor.Precision
	// Ckpt and Phased are HybridOptions' Checkpoint and Phased;
	// ZeROShard and UpdateOnDevice are KARMAOptions'.
	Ckpt, Phased, ZeROShard, UpdateOnDevice bool
}

// Canonical validates c and returns its canonical form: a named
// transformer becomes its explicit configuration, Samples and the
// pipeline's Micro carry their defaults, and Micro is clamped to Batch,
// so configurations that evaluate alike are equal. Canonical is
// idempotent. Its errors name invalid arguments; an unknown graph model
// and a gpus x batch product that overflows are left to Eval.
func (c Config) Canonical() (Config, error) {
	if !slices.Contains(families, c.Family) {
		return Config{}, fmt.Errorf("dist: unknown family %q (have %s)", c.Family, strings.Join(families, ", "))
	}
	if (c.Model == "") == (c.Transformer == nil) {
		return Config{}, fmt.Errorf("dist: exactly one of model and transformer must be set")
	}
	if c.Model != "" {
		if cfg, ok := model.TransformerByName(c.Model); ok {
			c.Model, c.Transformer = "", &cfg
		}
	}
	if c.Transformer != nil {
		if err := validateTransformer(*c.Transformer); err != nil {
			return Config{}, err
		}
	} else if c.Family != "karma-dp" && c.Family != "dp" {
		return Config{}, fmt.Errorf("dist: family %q requires a transformer configuration", c.Family)
	}
	if c.Samples == 0 {
		c.Samples = DefaultSamples
	}
	if err := checkArgs(c.Cluster, c.GPUs, c.Batch, c.Samples); err != nil {
		return Config{}, err
	}
	switch c.Family {
	case "mp+dp", "zero":
		if err := positive("model-parallel factor", c.MP); err != nil {
			return Config{}, err
		}
	case "pipeline":
		if c.Micro == 0 {
			c.Micro = DefaultMicro(c.Batch)
		}
		if err := positive("pipeline stage count", c.Stages); err != nil {
			return Config{}, err
		}
		if err := positive("micro-batch count", c.Micro); err != nil {
			return Config{}, err
		}
		c.Micro = min(c.Micro, c.Batch)
	}
	return c, nil
}

// Eval canonicalizes c and costs it on ev: the one dispatch from a
// family to its Evaluator method. Its errors are Canonical's or the
// evaluation's (an unknown graph model, an overflowing global batch).
func (c Config) Eval(ev Evaluator) (*Result, error) {
	c, err := c.Canonical()
	if err != nil {
		return nil, err
	}
	ho := HybridOptions{Phased: c.Phased, Checkpoint: c.Ckpt, Precision: c.Precision}
	switch c.Family {
	case "mp+dp":
		return ev.MegatronHybrid(*c.Transformer, c.Cluster, c.MP, c.GPUs, c.Batch, c.Samples, ho)
	case "zero":
		return ev.ZeRO(*c.Transformer, c.Cluster, c.MP, c.GPUs, c.Batch, c.Samples, ho)
	case "pipeline":
		return ev.Pipeline(*c.Transformer, c.Cluster, c.Stages, c.GPUs, c.Batch, c.Micro, c.Samples, ho)
	}
	var g *graph.Graph
	if c.Transformer != nil {
		g = CachedTransformer(*c.Transformer)
	} else if g, err = CachedModel(c.Model); err != nil {
		return nil, err
	}
	if c.Family == "dp" {
		return ev.DataParallel(g, c.Cluster, c.GPUs, c.Batch, c.Samples)
	}
	return ev.KARMADataParallel(g, c.Cluster, c.GPUs, c.Batch, c.Samples,
		KARMAOptions{UpdateOnDevice: c.UpdateOnDevice, ZeROShard: c.ZeROShard, Precision: c.Precision})
}

// positive rejects a count that is not positive.
func positive(what string, n int) error {
	if n <= 0 {
		return fmt.Errorf("dist: %s must be positive, got %d", what, n)
	}
	return nil
}

// checkArgs checks the arguments every family shares. Canonical and
// validateRun both call it.
func checkArgs(cl hw.Cluster, gpus, batch, samples int) error {
	if err := positive("gpus", gpus); err != nil {
		return err
	}
	if err := positive("per-replica batch", batch); err != nil {
		return err
	}
	if err := positive("sample count", samples); err != nil {
		return err
	}
	if cl.Nodes <= 0 || cl.Node.Devices <= 0 {
		return fmt.Errorf("dist: cluster %s has no devices", cl.Name)
	}
	if cl.Nodes > math.MaxInt/cl.Node.Devices {
		return fmt.Errorf("dist: cluster %s: %d nodes x %d devices overflows the device count", cl.Name, cl.Nodes, cl.Node.Devices)
	}
	return cl.Node.Device.Validate()
}

// validateRun is checkArgs plus the global batch's overflow check, the
// one argument check that only evaluation makes.
func validateRun(cl hw.Cluster, gpus, batch, samples int) error {
	if err := checkArgs(cl, gpus, batch, samples); err != nil {
		return err
	}
	if batch > math.MaxInt/gpus {
		return fmt.Errorf("dist: %d GPUs x per-replica batch %d overflows the global batch", gpus, batch)
	}
	return nil
}

// validateTransformer rejects degenerate configurations before the model
// builder (which panics on structural errors) runs.
func validateTransformer(cfg model.TransformerConfig) error {
	if cfg.Hidden <= 0 || cfg.Heads <= 0 || cfg.Layers <= 0 || cfg.Seq <= 0 || cfg.Vocab <= 0 {
		return fmt.Errorf("dist: degenerate transformer config %+v", cfg)
	}
	return nil
}
