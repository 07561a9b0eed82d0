package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"

	"karma/internal/dist"
	"karma/internal/trace"
)

// The /v1/plan and /v1/trace endpoints export one configuration's full
// execution story: the compiled plan IR and the simulated timeline the
// verdict was costed on, recorded during the evaluation itself. They
// accept the /v1/evaluate JSON body via POST, or the same fields as flat
// query parameters via GET (the explicit transformer config is
// POST-only; GET selects models by name). Either way the planned
// backend runs — the export is the planner's schedule by definition, so
// a requested (valid) backend is overridden before the cache key is
// derived.

// exportQueryFields lists the accepted GET query parameters, mirroring
// EvaluateRequest's JSON tags.
var exportQueryFields = []string{
	"family", "model", "gpus", "batch", "samples", "mp", "stages", "micro",
	"ckpt", "phased", "precision", "zero_shard", "update_on_device",
	"preset", "nodes", "topology",
}

// queryRequest builds an EvaluateRequest from GET query parameters,
// rejecting unknown names (the query-string analogue of decodeStrict).
func queryRequest(q url.Values) (*EvaluateRequest, error) {
	var unknown []string
	for k := range q { //karma:det-ok keys are sorted before use
		if !slices.Contains(exportQueryFields, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown query parameter %q", unknown[0])
	}
	req := &EvaluateRequest{
		Family:    q.Get("family"),
		Model:     q.Get("model"),
		Precision: q.Get("precision"),
		Cluster: ClusterSpec{
			Preset:   q.Get("preset"),
			Topology: q.Get("topology"),
		},
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"gpus", &req.GPUs}, {"batch", &req.Batch}, {"samples", &req.Samples},
		{"mp", &req.MP}, {"stages", &req.Stages}, {"micro", &req.Micro},
		{"nodes", &req.Cluster.Nodes},
	} {
		if v := q.Get(f.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("query parameter %s: %v", f.name, err)
			}
			*f.dst = n
		}
	}
	for _, f := range []struct {
		name string
		dst  *bool
	}{
		{"ckpt", &req.Ckpt}, {"phased", &req.Phased},
		{"zero_shard", &req.ZeROShard}, {"update_on_device", &req.UpdateOnDevice},
	} {
		if v := q.Get(f.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return nil, fmt.Errorf("query parameter %s: %v", f.name, err)
			}
			*f.dst = b
		}
	}
	return req, nil
}

// exportRequest decodes, canonicalizes and keys a plan/trace request.
// It writes the error response itself; ok reports whether the caller may
// proceed.
func (s *Server) exportRequest(w http.ResponseWriter, r *http.Request, endpoint string) (cfg dist.Config, key string, ok bool) {
	var req *EvaluateRequest
	switch r.Method {
	case http.MethodGet:
		var err error
		if req, err = queryRequest(r.URL.Query()); err != nil {
			writeError(w, r, http.StatusBadRequest, "%v", err)
			return cfg, "", false
		}
	case http.MethodPost:
		req = &EvaluateRequest{}
		if err := decodeStrict(r, req); err != nil {
			writeError(w, r, http.StatusBadRequest, "decoding request: %v", err)
			return cfg, "", false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, r, http.StatusMethodNotAllowed, "use GET with query parameters or POST with a JSON body")
		return cfg, "", false
	}
	// The export is the planner's schedule by definition; overriding a
	// valid backend before keying lets explicit-planned and defaulted
	// requests share one cache entry.
	if err := checkBackend(&req.Backend); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return cfg, "", false
	}
	req.Backend = "planned"
	cfg, err := req.config()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return cfg, "", false
	}
	if req.Family == "dp" {
		writeError(w, r, http.StatusBadRequest,
			"family %q has no planner schedule to export (its exchange is closed-form); use karma-dp", req.Family)
		return cfg, "", false
	}
	key, err = canonicalKey(endpoint, req)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return cfg, "", false
	}
	return cfg, key, true
}

// export evaluates a canonical configuration through a recording
// planned evaluator and returns the plan its verdict was costed on.
func (s *Server) export(cfg dist.Config) (*dist.PlanExport, error) {
	rec := s.planned.Recording()
	return rec.Recorded(cfg.Eval(rec))
}

// PlanResponse is the /v1/plan body: the compiled plan in its canonical
// JSON codec form (plan.Encode — the same bytes karma-plan emits, so
// plan.Decode round-trips it), next to the evaluator's verdict for the
// same configuration.
type PlanResponse struct {
	Plan   json.RawMessage `json:"plan"`
	Result *dist.Result    `json:"result"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	cfg, key, ok := s.exportRequest(w, r, "/v1/plan")
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, code, err := s.compute(ctx, "/v1/plan", key, func() (any, error) {
		ex, err := s.export(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ex.Plan.Encode(&buf); err != nil {
			return nil, err
		}
		return PlanResponse{Plan: bytes.TrimSpace(buf.Bytes()), Result: ex.Result}, nil
	})
	if err != nil {
		writeError(w, r, code, "%v", err)
		return
	}
	writeJSON(w, code, body)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	cfg, key, ok := s.exportRequest(w, r, "/v1/trace")
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, code, err := s.computeRaw(ctx, "/v1/trace", key, func() ([]byte, error) {
		ex, err := s.export(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, trace.Collect(ex.Compiled.Ops, ex.Timeline)); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		writeError(w, r, code, "%v", err)
		return
	}
	writeJSON(w, code, body)
}
