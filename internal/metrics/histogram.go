package metrics

import (
	"fmt"
	"math/bits"

	"paratick/internal/sim"
)

// HistBuckets is the number of log-scale buckets a Histogram carries. Bucket
// i covers durations in [2^(i-1), 2^i) nanoseconds (bucket 0 holds d ≤ 1ns),
// and the last bucket additionally absorbs anything larger. 44 buckets cover
// durations up to 2^43 ns (~2.4 simulated hours), comfortably past the
// 1000 s maxSimTime cap on any run, so the absorbing top bucket is
// unreachable in practice — the count exists to bound Counters' footprint:
// results are copied by value once per VM per run, and the histograms
// dominate that copy.
const HistBuckets = 44

// Histogram is a log2-bucketed latency/cost histogram. It is a plain value
// type — no pointers, no maps — so Counters embedding it stays copyable and
// mergeable, and recording is allocation-free on the simulator's hot path.
type Histogram struct {
	Buckets [HistBuckets]uint64
	N       uint64
	Sum     sim.Time
	MaxSeen sim.Time
}

// bucketOf maps a duration to its bucket index; durations past the bucket
// range clamp into the absorbing top bucket.
//
//paratick:noalloc
func bucketOf(d sim.Time) int {
	if d <= 1 {
		return 0
	}
	b := bits.Len64(uint64(d - 1))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one duration. Negative durations clamp to zero (they would
// indicate a model bug upstream; the histogram never corrupts).
//
//paratick:noalloc
func (h *Histogram) Observe(d sim.Time) { h.ObserveN(d, 1) }

// ObserveN records n observations of one duration in O(1); it leaves h
// exactly as n calls of Observe(d) would.
//
//paratick:noalloc
func (h *Histogram) ObserveN(d sim.Time, n uint64) {
	if n == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Buckets[bucketOf(d)] += n
	h.N += n
	h.Sum += d * sim.Time(n)
	if d > h.MaxSeen {
		h.MaxSeen = d
	}
}

// Merge accumulates other into h (used to merge per-VM or per-run counters).
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.N += other.N
	h.Sum += other.Sum
	if other.MaxSeen > h.MaxSeen {
		h.MaxSeen = other.MaxSeen
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.N }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() sim.Time {
	if h.N == 0 {
		return 0
	}
	return h.Sum / sim.Time(h.N)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() sim.Time { return h.MaxSeen }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the upper
// edge of the bucket containing that rank, clamped to the observed maximum.
// Log-scale buckets bound the relative error by 2×, which is plenty for the
// order-of-magnitude latency questions the reports answer.
//
// Out-of-domain arguments are defined, not garbage: an empty histogram
// yields 0 for every q; q ≤ 0 yields the smallest observed bucket's edge;
// q ≥ 1 yields the maximum; and a NaN q is treated as 0. (NaN previously
// slipped past both range clamps and hit a float→uint64 conversion whose
// result Go leaves implementation-defined — rendered percentiles could
// differ across platforms.)
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.N == 0 {
		return 0
	}
	if !(q > 0) { // catches q <= 0 and NaN
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.N))
	if rank >= h.N {
		rank = h.N - 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			upper := sim.Time(1) << uint(i)
			if i == 0 {
				upper = 1
			}
			return sim.MinTime(upper, h.MaxSeen)
		}
	}
	return h.MaxSeen
}

// P50, P95 and P99 are the quantiles the experiment reports print.
func (h *Histogram) P50() sim.Time { return h.Quantile(0.50) }
func (h *Histogram) P95() sim.Time { return h.Quantile(0.95) }
func (h *Histogram) P99() sim.Time { return h.Quantile(0.99) }

// String renders the histogram's summary line.
func (h *Histogram) String() string {
	if h.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v", h.N, h.P50(), h.P95(), h.P99(), h.MaxSeen)
}

// VectorClass groups interrupt vectors for injection-latency accounting.
// The hypervisor maps concrete IDT vectors onto these classes so the metrics
// package needs no dependency on the hardware model.
type VectorClass int

const (
	VecTimer      VectorClass = iota // guest LAPIC deadline timer (vector 236)
	VecParatick                      // virtual scheduler tick (vector 235)
	VecReschedule                    // wakeup IPI
	VecCallFunc                      // smp_call_function IPI
	VecDevice                        // emulated I/O device completion
	NumVectorClasses
)

var vectorClassNames = [NumVectorClasses]string{
	"timer", "paratick", "resched", "call-func", "io-device",
}

// String names the vector class.
func (c VectorClass) String() string {
	if c < 0 || c >= NumVectorClasses {
		return fmt.Sprintf("vec-class(%d)", int(c))
	}
	return vectorClassNames[c]
}

// ExitLatencyTable renders per-exit-reason handling-cost quantiles from the
// counters — the simulator's analogue of a perf exit-latency breakdown.
// Reasons with no observations are omitted; nil is returned when nothing was
// observed at all.
func ExitLatencyTable(title string, c *Counters) *Table {
	t := NewTable(title, "exit reason", "count", "p50", "p95", "p99", "max", "total")
	rows := 0
	for r := ExitReason(0); r < NumExitReasons; r++ {
		h := &c.ExitCost[r]
		if h.N == 0 {
			continue
		}
		rows++
		t.AddRow(r.String(), fmt.Sprintf("%d", h.N),
			h.P50().String(), h.P95().String(), h.P99().String(),
			h.Max().String(), h.Sum.String())
	}
	if rows == 0 {
		return nil
	}
	return t
}

// InjectLatencyTable renders per-vector-class injection latency quantiles:
// the delay between an interrupt being pended and its delivery at VM entry.
func InjectLatencyTable(title string, c *Counters) *Table {
	t := NewTable(title, "vector", "count", "p50", "p95", "p99", "max")
	rows := 0
	for v := VectorClass(0); v < NumVectorClasses; v++ {
		h := &c.InjectLatency[v]
		if h.N == 0 {
			continue
		}
		rows++
		t.AddRow(v.String(), fmt.Sprintf("%d", h.N),
			h.P50().String(), h.P95().String(), h.P99().String(), h.Max().String())
	}
	if rows == 0 {
		return nil
	}
	return t
}
