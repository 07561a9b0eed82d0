// Package unit provides typed quantities (bytes, FLOPs, bandwidth, time)
// used throughout the KARMA performance model, together with
// human-readable formatting helpers.
//
// All simulator time is carried as float64 seconds (type Seconds) rather
// than time.Duration: epoch-scale experiments (Fig. 8 of the paper) exceed
// the nanosecond-resolution int64 range comfortably, and float64 keeps the
// arithmetic in the analytic model exact enough for the qualitative
// assertions the test suite makes.
package unit

import (
	"fmt"
	"math"
)

// Bytes is a memory size in bytes.
type Bytes int64

// Common byte quantities.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
)

// String renders the size with a binary prefix, e.g. "16.00 GiB".
func (b Bytes) String() string {
	switch v := float64(b); {
	case b < 0:
		if -b == b { // math.MinInt64: negation overflows to itself
			return fmt.Sprintf("%.2f TiB", v/float64(TiB))
		}
		return "-" + (-b).String()
	case b >= TiB:
		return fmt.Sprintf("%.2f TiB", v/float64(TiB))
	case b >= GiB:
		return fmt.Sprintf("%.2f GiB", v/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.2f MiB", v/float64(MiB))
	case b >= KiB:
		return fmt.Sprintf("%.2f KiB", v/float64(KiB))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// FLOPs counts floating-point operations (work, not rate).
type FLOPs int64

// Common FLOP quantities.
const (
	KFLOP FLOPs = 1e3
	MFLOP FLOPs = 1e6
	GFLOP FLOPs = 1e9
	TFLOP FLOPs = 1e12
)

// String renders the operation count with an SI prefix, e.g. "14.70 TFLOP".
func (f FLOPs) String() string {
	switch v := float64(f); {
	case f < 0:
		if -f == f { // math.MinInt64: negation overflows to itself
			return fmt.Sprintf("%.2f TFLOP", v/float64(TFLOP))
		}
		return "-" + (-f).String()
	case f >= TFLOP:
		return fmt.Sprintf("%.2f TFLOP", v/float64(TFLOP))
	case f >= GFLOP:
		return fmt.Sprintf("%.2f GFLOP", v/float64(GFLOP))
	case f >= MFLOP:
		return fmt.Sprintf("%.2f MFLOP", v/float64(MFLOP))
	case f >= KFLOP:
		return fmt.Sprintf("%.2f KFLOP", v/float64(KFLOP))
	default:
		return fmt.Sprintf("%d FLOP", int64(f))
	}
}

// FLOPSRate is a compute throughput in FLOP/s.
type FLOPSRate float64

// String renders the rate, e.g. "14.7 TFLOP/s".
func (r FLOPSRate) String() string {
	return fmt.Sprintf("%s/s", FLOPs(r).String())
}

// BytesPerSec is a transfer or memory bandwidth.
type BytesPerSec float64

// Common bandwidth quantities (decimal, matching vendor datasheets:
// PCIe Gen3 x16 = 16 GB/s, NVLink = 50 GB/s as in Table II).
const (
	KBps BytesPerSec = 1e3
	MBps BytesPerSec = 1e6
	GBps BytesPerSec = 1e9
)

// String renders the bandwidth, e.g. "16.0 GB/s".
func (b BytesPerSec) String() string {
	switch {
	case b < 0:
		return "-" + (-b).String()
	case b >= GBps:
		return fmt.Sprintf("%.1f GB/s", float64(b/GBps))
	case b >= MBps:
		return fmt.Sprintf("%.1f MB/s", float64(b/MBps))
	case b >= KBps:
		return fmt.Sprintf("%.1f KB/s", float64(b/KBps))
	default:
		return fmt.Sprintf("%.1f B/s", float64(b))
	}
}

// Seconds is a duration or point in simulated time.
type Seconds float64

// String renders the time with an adaptive unit, e.g. "1.52 ms" or "3.4 h".
func (s Seconds) String() string {
	v := float64(s)
	switch {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return fmt.Sprintf("%v s", v)
	case v < 0:
		return "-" + Seconds(-v).String()
	case v == 0:
		return "0 s"
	case v < 1e-6:
		return fmt.Sprintf("%.2f ns", v*1e9)
	case v < 1e-3:
		return fmt.Sprintf("%.2f us", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2f ms", v*1e3)
	case v < 120:
		return fmt.Sprintf("%.2f s", v)
	case v < 2*3600:
		return fmt.Sprintf("%.1f min", v/60)
	default:
		return fmt.Sprintf("%.2f h", v/3600)
	}
}

// TransferTime returns how long moving n bytes over bandwidth bw takes,
// including a fixed per-transfer latency. A non-positive bandwidth yields
// +Inf (an unusable link), mirroring Eq. (4)'s min-throughput semantics.
func TransferTime(n Bytes, bw BytesPerSec, latency Seconds) Seconds {
	if n < 0 {
		panic(fmt.Sprintf("unit: negative transfer size %d", n))
	}
	if bw <= 0 {
		return Seconds(math.Inf(1))
	}
	return latency + Seconds(float64(n)/float64(bw))
}

// ComputeTime returns how long executing f FLOPs at rate r takes.
// A non-positive rate yields +Inf.
func ComputeTime(f FLOPs, r FLOPSRate) Seconds {
	if f < 0 {
		panic(fmt.Sprintf("unit: negative FLOP count %d", f))
	}
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(f) / float64(r))
}
