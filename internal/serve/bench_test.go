package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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

// BenchmarkEvaluateHit times one /v1/evaluate request answered from the
// response cache, through the real handler: decoding, canonicalization,
// the cache key and the cached body's write. Its allocs/op is the
// per-request allocation every hit pays.
func BenchmarkEvaluateHit(b *testing.B) {
	s := New(Config{})
	const body = `{"family":"zero","model":"megatron-2.5B","gpus":512,"batch":4,"mp":4,"ckpt":true}`
	hit := func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	hit() // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
