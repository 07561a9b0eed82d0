package experiments

import (
	"testing"

	"karma/internal/dist"
	"karma/internal/hw"
	"karma/internal/model"
)

// BenchmarkZeROBestConfig times the tuned ZeRO reference of Fig. 8's
// right panel — Turing-NLG at 512 GPUs, every MP degree at its capacity
// batch — on the planned backend with warm caches: the first call,
// outside the timer, fills the shard profiles and schedules, so the
// loop measures the capacity searches on the shared precheck plus one
// simulated evaluation per degree.
func BenchmarkZeROBestConfig(b *testing.B) {
	cl := hw.ABCI()
	cfg := model.TuringNLG()
	pe := dist.NewPlanned()
	fo := FamilyOptions{Ckpt: true, Workers: 1}
	if _, _, _, err := ZeROBestConfig(cfg, cl, 512, pe, fo); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ZeROBestConfig(cfg, cl, 512, pe, fo); err != nil {
			b.Fatal(err)
		}
	}
}
