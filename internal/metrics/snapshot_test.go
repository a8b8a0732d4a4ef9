package metrics

import (
	"math"
	"testing"

	"paratick/internal/sim"
	"paratick/internal/snap"
)

// TestQuantileEdgeCases pins the defined behaviour for out-of-domain
// arguments: empty histograms, q outside [0,1], and NaN q. NaN previously
// escaped both range clamps into a float→uint64 conversion whose result is
// implementation-defined.
func TestQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	var h Histogram
	h.Observe(3 * sim.Microsecond)
	h.Observe(40 * sim.Microsecond)
	h.Observe(900 * sim.Microsecond)

	min, max := h.Quantile(0), h.Quantile(1)
	if min != sim.Time(4096) { // upper edge of the bucket holding 3µs
		t.Errorf("Quantile(0) = %v, want the smallest bucket's edge (4096ns)", min)
	}
	if max != h.Max() {
		t.Errorf("Quantile(1) = %v, want max %v", max, h.Max())
	}
	if got := h.Quantile(-0.5); got != min {
		t.Errorf("Quantile(-0.5) = %v, want %v (clamped to 0)", got, min)
	}
	if got := h.Quantile(1.5); got != max {
		t.Errorf("Quantile(1.5) = %v, want %v (clamped to 1)", got, max)
	}
	if got := h.Quantile(math.NaN()); got != min {
		t.Errorf("Quantile(NaN) = %v, want %v (defined as q=0)", got, min)
	}
	if got := h.Quantile(math.Inf(1)); got != max {
		t.Errorf("Quantile(+Inf) = %v, want %v", got, max)
	}
	if got := h.Quantile(math.Inf(-1)); got != min {
		t.Errorf("Quantile(-Inf) = %v, want %v", got, min)
	}
}

func TestHistogramSaveLoad(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(sim.Time(i) * sim.Microsecond)
	}
	var enc snap.Encoder
	if err := snap.Encode(&enc, &h); err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != h {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
}

func TestCountersSaveLoad(t *testing.T) {
	var c Counters
	c.AddExit(ExitHLT)
	c.AddExit(ExitMSRWrite)
	c.Injections = 7
	c.VirtualTicks = 3
	c.GuestTicks = 11
	c.HostOverhead = 5 * sim.Millisecond
	c.GuestUseful = 80 * sim.Millisecond
	c.IOReads = 4
	c.IOBytesWritten = 4096
	c.ExitCost[ExitHLT].Observe(2 * sim.Microsecond)
	c.InjectLatency[VecDevice].Observe(9 * sim.Microsecond)
	c.TickInterval.Observe(4 * sim.Millisecond)

	var enc snap.Encoder
	if err := snap.Encode(&enc, &c); err != nil {
		t.Fatal(err)
	}
	var got Counters
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != c {
		t.Fatalf("round trip mismatch")
	}

	// Determinism of the encoding itself: same state, same bytes.
	var enc2 snap.Encoder
	if err := snap.Encode(&enc2, &c); err != nil {
		t.Fatal(err)
	}
	if string(enc.Bytes()) != string(enc2.Bytes()) {
		t.Fatal("re-encoding the same counters produced different bytes")
	}
}
