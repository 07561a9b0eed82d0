package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"karma/internal/dist"
	"karma/internal/experiments"
	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/tensor"
	"karma/internal/topo"
)

// ClusterSpec selects and sizes the cluster a request evaluates
// against. The zero value is the paper's ABCI machine on the flat
// interconnect model.
type ClusterSpec struct {
	// Preset names the cluster preset; "abci" (the default) is the only
	// one today.
	Preset string `json:"preset,omitempty"`
	// Nodes overrides the preset's node count (4 GPUs per ABCI node).
	Nodes int `json:"nodes,omitempty"`
	// Topology selects the interconnect model (internal/topo.Parse):
	// "flat", "abci", or "fattree:<ratio>".
	Topology string `json:"topology,omitempty"`
}

// cluster resolves the spec; the canonical form is written back so
// defaulted and explicit requests share one cache key.
func (c *ClusterSpec) cluster() (hw.Cluster, error) {
	if c.Preset == "" {
		c.Preset = "abci"
	}
	if c.Preset != "abci" {
		return hw.Cluster{}, fmt.Errorf("unknown cluster preset %q (have abci)", c.Preset)
	}
	cl := hw.ABCI()
	if c.Nodes < 0 {
		return hw.Cluster{}, fmt.Errorf("cluster nodes must be >= 0, got %d", c.Nodes)
	}
	if c.Nodes > 0 {
		cl.Nodes = c.Nodes
	} else {
		c.Nodes = cl.Nodes
	}
	if c.Topology == "" {
		c.Topology = "flat"
	}
	tp, err := topo.Parse(c.Topology)
	if err != nil {
		return hw.Cluster{}, err
	}
	return cl.WithTopology(tp), nil
}

// EvaluateRequest is the /v1/evaluate (and /v1/feasibility) payload:
// the JSON wire form of one dist.Config, plus the backend to cost it on.
// Model selection is either Model (a registry name: a named graph model
// like "resnet50" or a transformer configuration like
// "megatron-2.5B"/"turing-nlg-17B") or Transformer (an explicit
// configuration); the hybrid and pipeline families require a
// transformer either way.
type EvaluateRequest struct {
	// Family selects the parallelism family: "karma-dp", "dp", "mp+dp",
	// "zero", or "pipeline".
	Family string `json:"family"`
	// Backend selects the evaluator: "analytic" (default) or "planned".
	Backend string `json:"backend,omitempty"`
	// Model is a registry name (model.Build or a transformer config
	// name). Exactly one of Model and Transformer must be set.
	Model string `json:"model,omitempty"`
	// Transformer is an explicit transformer configuration.
	Transformer *model.TransformerConfig `json:"transformer,omitempty"`
	// Cluster sizes the machine; zero value = full ABCI, flat fabric.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// GPUs is the total device count the configuration uses.
	GPUs int `json:"gpus"`
	// Batch is the per-replica mini-batch.
	Batch int `json:"batch"`
	// Samples is the epoch sample count (default dist.DefaultSamples).
	Samples int `json:"samples,omitempty"`
	// MP is the tensor-parallel degree of the mp+dp and zero families.
	MP int `json:"mp,omitempty"`
	// Stages is the pipeline family's stage count.
	Stages int `json:"stages,omitempty"`
	// Micro is the pipeline family's micro-batch count per iteration
	// (default dist.DefaultMicro, clamped to Batch).
	Micro int `json:"micro,omitempty"`
	// Ckpt enables activation checkpointing in the hybrid shards and
	// pipeline stages.
	Ckpt bool `json:"ckpt,omitempty"`
	// Phased selects the phased (optimized) gradient exchange in the
	// hybrid families.
	Phased bool `json:"phased,omitempty"`
	// Precision is the training regime: "fp32" (default), "fp16", or
	// its synonym "mixed".
	Precision string `json:"precision,omitempty"`
	// ZeROShard composes KARMA-DP with ZeRO-style state sharding.
	ZeROShard bool `json:"zero_shard,omitempty"`
	// UpdateOnDevice forces KARMA's weight update onto the GPU (A4).
	UpdateOnDevice bool `json:"update_on_device,omitempty"`
}

// parsePrecision defaults an empty precision to "fp32" and writes back
// the canonical name ("mixed" becomes "fp16").
func parsePrecision(s *string) (tensor.Precision, error) {
	if *s == "" {
		*s = "fp32"
	}
	prec, err := tensor.ParsePrecision(*s)
	if err != nil {
		return prec, err
	}
	*s = prec.String()
	return prec, nil
}

// checkBackend defaults an empty backend to "analytic" and rejects
// names outside dist.BackendNames.
func checkBackend(b *string) error {
	if *b == "" {
		*b = "analytic"
	}
	if slices.Contains(dist.BackendNames(), *b) {
		return nil
	}
	return fmt.Errorf("unknown backend %q (have %s)", *b, strings.Join(dist.BackendNames(), ", "))
}

// config resolves the request's wire fields (backend, precision,
// cluster), canonicalizes the configuration, and writes the canonical
// model, transformer, samples, micro and precision back, so two requests
// for one configuration marshal to one response-cache key. Its errors
// are invalid requests.
func (r *EvaluateRequest) config() (dist.Config, error) {
	if err := checkBackend(&r.Backend); err != nil {
		return dist.Config{}, err
	}
	prec, err := parsePrecision(&r.Precision)
	if err != nil {
		return dist.Config{}, err
	}
	cl, err := r.Cluster.cluster()
	if err != nil {
		return dist.Config{}, err
	}
	c, err := dist.Config{
		Family: r.Family, Model: r.Model, Transformer: r.Transformer, Cluster: cl,
		GPUs: r.GPUs, Batch: r.Batch, Samples: r.Samples, MP: r.MP, Stages: r.Stages, Micro: r.Micro,
		Precision: prec, Ckpt: r.Ckpt, Phased: r.Phased, ZeROShard: r.ZeROShard, UpdateOnDevice: r.UpdateOnDevice,
	}.Canonical()
	if err != nil {
		return dist.Config{}, err
	}
	r.Model, r.Transformer, r.Samples, r.Micro = c.Model, c.Transformer, c.Samples, c.Micro
	return c, nil
}

// EvaluateResponse wraps one configuration's evaluation.
type EvaluateResponse struct {
	Result *dist.Result `json:"result"`
}

// FeasibilityResponse is the verdict-only projection of an evaluation:
// the answer to "can model M train on cluster C this way?", with the
// evaluator's Reason when it cannot.
type FeasibilityResponse struct {
	Feasible    bool   `json:"feasible"`
	Reason      string `json:"reason,omitempty"`
	GPUs        int    `json:"gpus"`
	GlobalBatch int    `json:"global_batch"`
	Backend     string `json:"backend"`
}

// SweepRequest is the /v1/sweep payload: one experiment panel to
// regenerate. Panels mirror karma-bench's experiments.
type SweepRequest struct {
	// Panel selects the sweep: "fig8-megatron", "fig8-turing", "table4",
	// "table5", or "topo".
	Panel string `json:"panel"`
	// Backend selects the evaluator: "analytic" (default) or "planned".
	Backend string `json:"backend,omitempty"`
	// Cluster sizes the machine; topology pins the fabric of the panel
	// (the topo panel sweeps its own ladder regardless).
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Precision is the training regime of every family (default fp32).
	Precision string `json:"precision,omitempty"`
	// Ckpt enables activation checkpointing in the baselines; nil means
	// true (the regime real deployments train in — karma-bench's
	// default).
	Ckpt *bool `json:"ckpt,omitempty"`
	// Pipeline adds the GPipe-style family to the fig8/table4 panels.
	Pipeline bool `json:"pipeline,omitempty"`
	// Config is the fig8-megatron Table IV configuration index
	// (default 2, the 2.5B panel).
	Config *int `json:"config,omitempty"`
	// GPUs overrides the panel's GPU-count grid (fig8 panels and the
	// topo panel's single count).
	GPUs []int `json:"gpus,omitempty"`
}

// sweepPanels lists the accepted Panel values.
var sweepPanels = []string{"fig8-megatron", "fig8-turing", "table4", "table5", "topo"}

// normalize validates the sweep request and writes back every default.
func (r *SweepRequest) normalize() error {
	if !slices.Contains(sweepPanels, r.Panel) {
		return fmt.Errorf("unknown panel %q (have %s)", r.Panel, strings.Join(sweepPanels, ", "))
	}
	if err := checkBackend(&r.Backend); err != nil {
		return err
	}
	if _, err := parsePrecision(&r.Precision); err != nil {
		return err
	}
	if r.Ckpt == nil {
		t := true
		r.Ckpt = &t
	}
	switch r.Panel {
	case "fig8-megatron":
		if r.Config == nil {
			c := 2
			r.Config = &c
		}
		if *r.Config < 0 || *r.Config >= len(model.MegatronConfigs()) {
			return fmt.Errorf("config index %d out of range [0, %d)", *r.Config, len(model.MegatronConfigs()))
		}
		if len(r.GPUs) == 0 {
			r.GPUs = []int{128, 256, 512, 1024, 2048}
		}
	case "fig8-turing":
		if len(r.GPUs) == 0 {
			r.GPUs = []int{512, 1024, 2048}
		}
	case "topo":
		if len(r.GPUs) == 0 {
			r.GPUs = []int{512}
		}
		if len(r.GPUs) != 1 {
			return fmt.Errorf("the topo panel takes exactly one GPU count, got %d", len(r.GPUs))
		}
	default:
		if len(r.GPUs) != 0 {
			return fmt.Errorf("panel %q does not take a GPU grid", r.Panel)
		}
	}
	for _, g := range r.GPUs {
		if g <= 0 {
			return fmt.Errorf("gpus must be positive, got %d", g)
		}
	}
	if r.Config != nil && r.Panel != "fig8-megatron" {
		return fmt.Errorf("config only applies to the fig8-megatron panel")
	}
	if _, err := r.Cluster.cluster(); err != nil {
		return err
	}
	return nil
}

// SweepResponse carries one panel, in the field matching the request.
type SweepResponse struct {
	Panel  string                             `json:"panel"`
	Fig8   *experiments.Fig8Panel             `json:"fig8,omitempty"`
	Table4 []experiments.TableIVRow           `json:"table4,omitempty"`
	Table5 map[string][]experiments.TableVRow `json:"table5,omitempty"`
	Topo   []experiments.TopoRow              `json:"topo,omitempty"`
}

// run evaluates the normalized sweep with the evaluator under the
// worker bound (results are identical for every worker count —
// internal/sweep's ordering contract).
func (r *SweepRequest) run(ev dist.Evaluator, workers int) (*SweepResponse, error) {
	cl, err := r.Cluster.cluster()
	if err != nil {
		return nil, err
	}
	prec, err := tensor.ParsePrecision(r.Precision)
	if err != nil {
		return nil, err
	}
	fo := experiments.FamilyOptions{
		Ckpt:      *r.Ckpt,
		Precision: prec,
		Pipeline:  r.Pipeline,
		Workers:   workers,
	}
	resp := &SweepResponse{Panel: r.Panel}
	switch r.Panel {
	case "fig8-megatron":
		p, err := experiments.Figure8Megatron(cl, *r.Config, r.GPUs, ev, fo)
		if err != nil {
			return nil, err
		}
		resp.Fig8 = p
	case "fig8-turing":
		p, err := experiments.Figure8Turing(cl, r.GPUs, ev, fo)
		if err != nil {
			return nil, err
		}
		resp.Fig8 = p
	case "table4":
		rows, err := experiments.TableIV(cl, ev, fo)
		if err != nil {
			return nil, err
		}
		resp.Table4 = rows
	case "table5":
		sweeps, err := experiments.TableV(cl, ev, workers)
		if err != nil {
			return nil, err
		}
		resp.Table5 = sweeps
	case "topo":
		rows, err := experiments.TopologySweep(cl, r.GPUs[0], experiments.TopoLadder(), ev, fo)
		if err != nil {
			return nil, err
		}
		resp.Topo = rows
	default:
		return nil, fmt.Errorf("unknown panel %q", r.Panel)
	}
	return resp, nil
}

// canonicalKey derives the response-cache key for a normalized request:
// the endpoint plus the request's canonical JSON (struct field order is
// fixed, defaults are written back by normalize, so two semantically
// identical requests produce one key).
func canonicalKey(endpoint string, req any) (string, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return endpoint + " " + string(b), nil
}
