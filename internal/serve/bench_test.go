package serve

import (
	"encoding/json"
	"testing"

	"karma/internal/dist"
)

// BenchmarkCanonicalKey times the per-request serving layer around an
// evaluation: the canonical response-cache key of a canonicalized
// /v1/evaluate request, plus the encoding of its response body (a
// Megatron-LM 2.5B ZeRO verdict with its breakdown). The evaluation
// itself runs once, outside the timer.
func BenchmarkCanonicalKey(b *testing.B) {
	var req EvaluateRequest
	if err := json.Unmarshal([]byte(`{"family":"zero","model":"megatron-2.5B","gpus":512,"batch":4,"mp":4,"ckpt":true}`), &req); err != nil {
		b.Fatal(err)
	}
	cfg, err := req.config()
	if err != nil {
		b.Fatal(err)
	}
	res, err := cfg.Eval(dist.Analytic{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := canonicalKey("/v1/evaluate", &req); err != nil {
			b.Fatal(err)
		}
		if _, err := encode(EvaluateResponse{Result: res}); err != nil {
			b.Fatal(err)
		}
	}
}
