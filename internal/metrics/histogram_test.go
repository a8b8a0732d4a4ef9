package metrics

import (
	"strings"
	"testing"

	"paratick/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.P99() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.String() != "n=0" {
		t.Fatalf("String() = %q", h.String())
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations at 1us, 10 slow at ~1ms.
	for i := 0; i < 90; i++ {
		h.Observe(sim.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(sim.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.P50(); p50 > 2*sim.Microsecond {
		t.Fatalf("p50 = %v, want ≈1us", p50)
	}
	// p95 and p99 land in the slow tail; log buckets bound the error by 2×.
	if p95 := h.P95(); p95 < sim.Millisecond/2 || p95 > 2*sim.Millisecond {
		t.Fatalf("p95 = %v, want ≈1ms", p95)
	}
	if h.Max() != sim.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Mean() == 0 {
		t.Fatal("mean = 0")
	}
}

func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	var h Histogram
	h.Observe(3) // bucket upper edge is 4; quantile must clamp to 3
	if q := h.P99(); q != 3 {
		t.Fatalf("p99 = %v, want clamped max 3", q)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 || h.Max() != 0 || h.Sum != 0 {
		t.Fatalf("negative observation mishandled: %+v", h)
	}
}

func TestHistogramObserveNMatchesObserve(t *testing.T) {
	for _, tc := range []struct {
		d sim.Time
		n uint64
	}{{1200, 1}, {1200, 3}, {-5, 4}, {0, 2}, {7 * sim.Millisecond, 1000}, {1200, 0}} {
		var got, want Histogram
		got.Observe(3 * sim.Microsecond) // a prior observation to add to
		want.Observe(3 * sim.Microsecond)
		got.ObserveN(tc.d, tc.n)
		for i := uint64(0); i < tc.n; i++ {
			want.Observe(tc.d)
		}
		if got != want {
			t.Errorf("ObserveN(%v, %d) = %+v, want %+v", tc.d, tc.n, got, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(100)
	b.Observe(1000)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 1000 {
		t.Fatalf("merged max = %v", a.Max())
	}
	if a.Sum != 1110 {
		t.Fatalf("merged sum = %v", a.Sum)
	}
}

func TestBucketOfMonotone(t *testing.T) {
	prev := bucketOf(0)
	for d := sim.Time(1); d < 1<<20; d *= 3 {
		b := bucketOf(d)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", d, b, prev)
		}
		prev = b
	}
	if bucketOf(sim.Time(1)) != 0 {
		t.Fatal("1ns must land in bucket 0")
	}
	if bucketOf(sim.Time(2)) != 1 {
		t.Fatal("2ns must land in bucket 1")
	}
}

func TestVectorClassNames(t *testing.T) {
	if VecParatick.String() != "paratick" || VecDevice.String() != "io-device" {
		t.Fatal("vector class names")
	}
	if !strings.HasPrefix(VectorClass(99).String(), "vec-class(") {
		t.Fatal("unknown vector class name")
	}
}

func TestExitLatencyTable(t *testing.T) {
	var c Counters
	if ExitLatencyTable("t", &c) != nil {
		t.Fatal("empty counters must render no table")
	}
	c.ExitCost[ExitMSRWrite].Observe(2 * sim.Microsecond)
	c.ExitCost[ExitMSRWrite].Observe(4 * sim.Microsecond)
	tbl := ExitLatencyTable("exit latency", &c)
	if tbl == nil {
		t.Fatal("expected a table")
	}
	s := tbl.String()
	if !strings.Contains(s, "msr-write") || !strings.Contains(s, "p99") {
		t.Fatalf("table missing content:\n%s", s)
	}
}

func TestInjectLatencyTable(t *testing.T) {
	var c Counters
	if InjectLatencyTable("t", &c) != nil {
		t.Fatal("empty counters must render no table")
	}
	c.InjectLatency[VecTimer].Observe(sim.Microsecond)
	tbl := InjectLatencyTable("inject latency", &c)
	if tbl == nil || !strings.Contains(tbl.String(), "timer") {
		t.Fatal("inject latency table missing timer row")
	}
}

func TestCountersAddMergesHistograms(t *testing.T) {
	var a, b Counters
	a.ExitCost[ExitHLT].Observe(100)
	b.ExitCost[ExitHLT].Observe(200)
	b.TickInterval.Observe(4 * sim.Millisecond)
	b.InjectLatency[VecDevice].Observe(50)
	a.Add(&b)
	if a.ExitCost[ExitHLT].Count() != 2 {
		t.Fatalf("exit cost count = %d", a.ExitCost[ExitHLT].Count())
	}
	if a.TickInterval.Count() != 1 || a.InjectLatency[VecDevice].Count() != 1 {
		t.Fatal("histograms not merged by Add")
	}
}
