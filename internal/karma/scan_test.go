package karma

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"karma/internal/hw"
	"karma/internal/model"
	"karma/internal/profiler"
	"karma/internal/tensor"
	"karma/internal/unit"
)

// scanProfiles returns the shard profiles the capacity verdicts of the
// cluster panels ask: Table IV's Megatron rows (config i at MP=2^i,
// batch 4), the Turing-NLG ZeRO candidates of Fig. 8 (MP 2–16 over the
// bottom of the capacity ladder), both at fp32 and fp16, plus synthetic
// fuzzProfile shapes. -short keeps the Table IV rows and the synthetic
// shapes.
func scanProfiles(t testing.TB) map[string]*profiler.Profile {
	t.Helper()
	out := map[string]*profiler.Profile{}
	add := func(name string, cfg model.TransformerConfig, mp, batch int, dt tensor.DType) {
		p, err := profiler.New(model.TransformerShard(cfg, mp).Graph, hw.ABCINode(), profiler.Options{Batch: batch, DType: dt})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	for _, dt := range []tensor.DType{tensor.FP32, tensor.FP16} {
		for i, cfg := range model.MegatronConfigs() {
			add("table4/"+cfg.Name+"/"+dt.String(), cfg, 1<<i, 4, dt)
		}
		if testing.Short() {
			continue
		}
		for _, mp := range []int{2, 4, 8, 16} {
			for _, batch := range []int{1, 4, 16, 64} {
				add("fig8/turing/mp"+strconv.Itoa(mp)+"/b"+strconv.Itoa(batch)+"/"+dt.String(), model.TuringNLG(), mp, batch, dt)
			}
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		out["fuzz/"+strconv.FormatInt(seed, 10)] = fuzzProfile(seed, int(seed*5%24)+1)
	}
	return out
}

// scanBudgets spans every regime of the profile's verdict: below the
// minimal checkpointed footprint, the boundary itself, run counts in
// between, and the all-resident footprint's boundary.
func scanBudgets(p *profiler.Profile) []unit.Bytes {
	lo, hi := CheckpointFootprint(p), p.TotalActBytes
	bs := []unit.Bytes{lo / 2, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, hi + hi/10}
	for j := unit.Bytes(1); j < 8; j++ {
		bs = append(bs, lo+(hi-lo)*j/8)
	}
	return bs
}

// sameVerdict requires a scan's answer to equal a fresh Checkpoint's:
// every Schedule field, or the same error text.
func sameVerdict(t *testing.T, what string, got *Schedule, gotErr error, want *Schedule, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: scan err %v, fresh err %v", what, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: scan error %q, fresh %q", what, gotErr, wantErr)
		}
	case !reflect.DeepEqual(*got, *want):
		t.Fatalf("%s: scan schedule differs from a fresh Checkpoint:\n got %+v\nwant %+v", what, *got, *want)
	}
}

// TestCheckpointScanMatchesFresh: one reused scan, asked budgets in
// ascending, descending and shuffled order (and after its minimum),
// answers every budget exactly as a fresh Checkpoint does, and its
// minimum is CheckpointFootprint.
func TestCheckpointScanMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for name, p := range scanProfiles(t) {
		budgets := scanBudgets(p)
		asc := append([]unit.Bytes(nil), budgets...)
		slices.Sort(asc)
		desc := make([]unit.Bytes, len(asc))
		for i, b := range asc {
			desc[len(asc)-1-i] = b
		}
		shuf := append([]unit.Bytes(nil), budgets...)
		r.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		foot := CheckpointFootprint(p)
		for _, order := range []struct {
			name     string
			budgets  []unit.Bytes
			minFirst bool
		}{
			{"ascending", asc, false},
			{"descending", desc, false},
			{"shuffled", shuf, false},
			{"min-first", shuf, true},
		} {
			sc := NewCheckpointScan(p)
			if order.minFirst {
				if got := sc.Min(); got != foot {
					t.Fatalf("%s: Min before any Fit = %v, CheckpointFootprint %v", name, got, foot)
				}
			}
			for _, b := range order.budgets {
				s, err := sc.Fit(b)
				want, wantErr := Checkpoint(p, b)
				sameVerdict(t, name+"/"+order.name+"/"+b.String(), s, err, want, wantErr)
				// A failed fit reports the minimal footprint.
				if msg := fmt.Sprintf("karma: checkpointed activations need %v of %v", foot, b); err != nil && err.Error() != msg {
					t.Fatalf("%s/%s: error %q, want %q", name, order.name, err, msg)
				}
			}
			if got := sc.Min(); got != foot {
				t.Fatalf("%s/%s: Min = %v, CheckpointFootprint %v", name, order.name, got, foot)
			}
		}
	}
}

// TestCheckpointScanEdgeProfiles: the degenerate profiles keep
// Checkpoint's and CheckpointFootprint's answers: no blocks, one block.
func TestCheckpointScanEdgeProfiles(t *testing.T) {
	empty := fuzzProfile(1, 0)
	if _, err := NewCheckpointScan(empty).Fit(1); err == nil || err.Error() != "karma: profile has no blocks" {
		t.Errorf("empty profile: err %v", err)
	}
	if got := NewCheckpointScan(empty).Min(); got != 0 {
		t.Errorf("empty profile: Min %v, want 0", got)
	}
	one := fuzzProfile(3, 1)
	one.Blocks[0].ActBytes, one.TotalActBytes = 100, 100
	sc := NewCheckpointScan(one)
	if _, err := sc.Fit(99); err == nil || err.Error() != "karma: checkpointed activations need 100 B of 99 B" {
		t.Errorf("one block below its footprint: err %v", err)
	}
	if s, err := sc.Fit(100); err != nil || s.Resident != 0 {
		t.Errorf("one block at its footprint: %+v, %v", s, err)
	}
	if got := sc.Min(); got != 100 {
		t.Errorf("one block: Min %v, want 100", got)
	}
}

// TestCheckpointScanConcurrent: goroutines sharing one scan (as the
// dist evaluators share one per shard profile) each get a fresh
// Checkpoint's answer for every budget, in their own order. Run it under
// -race.
func TestCheckpointScanConcurrent(t *testing.T) {
	sh := model.TransformerShard(model.MegatronConfigs()[3], 8)
	p, err := profiler.New(sh.Graph, hw.ABCINode(), profiler.Options{Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	budgets := scanBudgets(p)
	want := make([]*Schedule, len(budgets))
	wantErr := make([]error, len(budgets))
	for i, b := range budgets {
		want[i], wantErr[i] = Checkpoint(p, b)
	}
	foot := CheckpointFootprint(p)
	sc := NewCheckpointScan(p)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for _, i := range r.Perm(len(budgets)) {
				s, err := sc.Fit(budgets[i])
				if (err == nil) != (wantErr[i] == nil) ||
					err != nil && err.Error() != wantErr[i].Error() ||
					err == nil && !reflect.DeepEqual(*s, *want[i]) {
					t.Errorf("goroutine %d, budget %v: got %v, %v", g, budgets[i], s, err)
				}
				if g%2 == 1 && sc.Min() != foot {
					t.Errorf("goroutine %d: Min %v, want %v", g, sc.Min(), foot)
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzCheckpointScan drives one scan through a fuzzed budget sequence on
// a fuzzProfile: every Fit equals a fresh Checkpoint, and Min (asked
// wherever the sequence holds the 0xffff marker, and at the end) equals
// CheckpointFootprint. Budgets are two-byte shares of the all-resident
// footprint, from 1/1024 to 64x. Seeds live in
// testdata/fuzz/FuzzCheckpointScan.
func FuzzCheckpointScan(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{0x00, 0x02, 0x00, 0x04, 0x00, 0x01, 0x04, 0x00})
	f.Add(int64(42), uint8(24), []byte{0xff, 0xff, 0x01, 0x00, 0x00, 0x10})
	f.Add(int64(7), uint8(2), []byte{0x03, 0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8, seq []byte) {
		p := fuzzProfile(seed, int(kRaw%32)+1)
		foot := CheckpointFootprint(p)
		sc := NewCheckpointScan(p)
		for i := 0; i+1 < len(seq) && i < 64; i += 2 {
			v := binary.BigEndian.Uint16(seq[i:])
			if v == 0xffff {
				if got := sc.Min(); got != foot {
					t.Fatalf("Min = %v, CheckpointFootprint %v", got, foot)
				}
				continue
			}
			budget := unit.Bytes(int64(p.TotalActBytes) / 1024 * int64(v))
			s, err := sc.Fit(budget)
			want, wantErr := Checkpoint(p, budget)
			sameVerdict(t, budget.String(), s, err, want, wantErr)
		}
		if got := sc.Min(); got != foot {
			t.Fatalf("Min = %v, CheckpointFootprint %v", got, foot)
		}
	})
}
