package unit

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// relErr is the relative round-trip error of got vs want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Unit suffixes the String methods emit, with their multipliers.
var (
	byteUnits = map[string]float64{
		"B": 1, "KiB": float64(KiB), "MiB": float64(MiB),
		"GiB": float64(GiB), "TiB": float64(TiB),
	}
	flopUnits = map[string]float64{
		"FLOP": 1, "KFLOP": float64(KFLOP), "MFLOP": float64(MFLOP),
		"GFLOP": float64(GFLOP), "TFLOP": float64(TFLOP),
	}
	flopsRateUnits = map[string]float64{
		"FLOP/s": 1, "KFLOP/s": float64(KFLOP), "MFLOP/s": float64(MFLOP),
		"GFLOP/s": float64(GFLOP), "TFLOP/s": float64(TFLOP),
	}
	bandwidthUnits = map[string]float64{
		"B/s": 1, "KB/s": float64(KBps), "MB/s": float64(MBps), "GB/s": float64(GBps),
	}
	secondsUnits = map[string]float64{
		"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1, "min": 60, "h": 3600,
	}
)

// readBack inverts a "<number> <unit>" String rendering through the
// unit's multiplier, failing the test on any other shape or suffix.
func readBack(t *testing.T, s string, units map[string]float64) float64 {
	t.Helper()
	f := strings.Fields(s)
	if len(f) != 2 {
		t.Fatalf("rendering %q is not \"<number> <unit>\"", s)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		t.Fatalf("rendering %q: bad number: %v", s, err)
	}
	m, ok := units[f[1]]
	if !ok {
		t.Fatalf("rendering %q: unknown unit %q", s, f[1])
	}
	return v * m
}

// The String methods render with two decimals (one for bandwidth), so a
// rendering recovers its value only up to formatting precision. The
// bounds below are the worst case just above each prefix boundary
// (e.g. "1.00 KiB" for anything in [1019.1, 1029.1] bytes).
const (
	tolTwoDecimals = 0.01
	tolSeconds     = 0.03 // "%.1f min" at 120 s is the widest bucket
	tolBandwidth   = 0.05 // "%.1f GB/s" at 1 GB/s
)

func TestBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := Bytes(r.Int63n(1 << uint(1+r.Intn(62))))
		if r.Intn(2) == 0 {
			v = -v
		}
		got := readBack(t, v.String(), byteUnits)
		if relErr(got, float64(v)) > tolTwoDecimals {
			t.Fatalf("round trip %d -> %q -> %v", v, v.String(), got)
		}
	}
}

func TestFLOPsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		v := FLOPs(r.Int63n(1 << uint(1+r.Intn(62))))
		if r.Intn(2) == 0 {
			v = -v
		}
		got := readBack(t, v.String(), flopUnits)
		if relErr(got, float64(v)) > tolTwoDecimals {
			t.Fatalf("round trip %d -> %q -> %v", v, v.String(), got)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		// 10 ns .. ~28 h covers every rendering bucket.
		v := Seconds(math.Pow(10, -8+13*r.Float64()))
		if r.Intn(2) == 0 {
			v = -v
		}
		got := readBack(t, v.String(), secondsUnits)
		if relErr(got, float64(v)) > tolSeconds {
			t.Fatalf("round trip %v -> %q -> %v", float64(v), v.String(), got)
		}
	}
}

func TestBytesPerSecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		// 1 B/s .. 1 TB/s; String renders with a single decimal.
		v := BytesPerSec(math.Pow(10, 12*r.Float64()))
		if r.Intn(2) == 0 {
			v = -v
		}
		got := readBack(t, v.String(), bandwidthUnits)
		if relErr(got, float64(v)) > tolBandwidth {
			t.Fatalf("round trip %v -> %q -> %v", float64(v), v.String(), got)
		}
	}
}

func TestFLOPSRateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		// String truncates through FLOPs(int64), so stay >= 1 KFLOP/s
		// where that truncation is inside the two-decimal tolerance.
		v := FLOPSRate(math.Pow(10, 3+12*r.Float64()))
		if r.Intn(2) == 0 {
			v = -v
		}
		got := readBack(t, v.String(), flopsRateUnits)
		if relErr(got, float64(v)) > tolTwoDecimals {
			t.Fatalf("round trip %v -> %q -> %v", float64(v), v.String(), got)
		}
	}
}

// TestStringMinInt64 is the regression test for the String negation
// overflow: -math.MinInt64 == math.MinInt64, which used to recurse
// forever.
func TestStringMinInt64(t *testing.T) {
	if got := Bytes(math.MinInt64).String(); got != "-8388608.00 TiB" {
		t.Errorf("Bytes(MinInt64) = %q", got)
	}
	if got := FLOPs(math.MinInt64).String(); !strings.HasPrefix(got, "-9223372.04 TFLOP") {
		t.Errorf("FLOPs(MinInt64) = %q", got)
	}
}

// TestStringSpecials: zero and the non-finite times render to values
// that read back exactly.
func TestStringSpecials(t *testing.T) {
	for _, v := range []Seconds{0, Seconds(math.Inf(1)), Seconds(math.Inf(-1))} {
		if got := readBack(t, v.String(), secondsUnits); got != float64(v) {
			t.Errorf("%q read back as %v, want %v", v.String(), got, float64(v))
		}
	}
	if nan := readBack(t, Seconds(math.NaN()).String(), secondsUnits); !math.IsNaN(nan) {
		t.Errorf("NaN seconds read back as %v", nan)
	}
	if got := readBack(t, Bytes(0).String(), byteUnits); got != 0 {
		t.Errorf("zero bytes read back as %v", got)
	}
}
