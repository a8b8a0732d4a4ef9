package metrics

import (
	"fmt"
	"math"
	"strconv"

	"paratick/internal/sim"
)

// Result captures the outcome of one simulated run: what ran, under which
// tick mode, its counters, and its wall-clock (simulated) execution time.
type Result struct {
	Name     string // workload identifier, e.g. "parsec/dedup"
	Mode     string // tick mode, e.g. "dynticks" or "paratick"
	Counters Counters
	WallTime sim.Time // application execution time
	// Events is the number of simulation-engine events the run dispatched —
	// the simulator's own cost metric, aggregated by Meter into events/sec.
	Events uint64
}

// Throughput returns useful work per busy cycle — the efficiency the paper's
// "system throughput" metric tracks: the same work done in fewer total
// cycles means higher throughput (§6.1).
func (r Result) Throughput() float64 {
	busy := r.Counters.BusyCycles()
	if busy <= 0 {
		return 0
	}
	return float64(r.Counters.GuestUseful) / float64(busy)
}

// IOThroughputMBps returns I/O throughput in MB/s of simulated time, the
// direct throughput measurement used for the fio experiments (§6.3).
func (r Result) IOThroughputMBps() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Counters.IOBytes()) / 1e6 / r.WallTime.Seconds()
}

// Comparison holds the paper's three headline metrics for one workload as
// relative changes of an optimized run against a baseline run:
//
//	ExitsDelta      — relative change in total VM exits (negative = fewer)
//	ThroughputDelta — relative change in system throughput (positive = better)
//	RuntimeDelta    — relative change in execution time (negative = faster)
type Comparison struct {
	Name            string
	Baseline        Result
	Optimized       Result
	ExitsDelta      float64
	TimerExitsDelta float64
	ThroughputDelta float64
	RuntimeDelta    float64
}

// Compare derives the paper's relative metrics for optimized vs baseline.
// Throughput change is computed from busy cycles for the same completed
// work: doing it in k× fewer cycles = k× higher throughput.
func Compare(baseline, optimized Result) Comparison {
	c := Comparison{Name: baseline.Name, Baseline: baseline, Optimized: optimized}
	c.ExitsDelta = relChange(float64(optimized.Counters.TotalExits()), float64(baseline.Counters.TotalExits()))
	c.TimerExitsDelta = relChange(float64(optimized.Counters.TimerExits()), float64(baseline.Counters.TimerExits()))
	// Throughput = work/cycles. With equal work, throughput ratio is the
	// inverse cycle ratio.
	bc, oc := float64(baseline.Counters.BusyCycles()), float64(optimized.Counters.BusyCycles())
	if oc > 0 {
		c.ThroughputDelta = bc/oc - 1
	}
	c.RuntimeDelta = relChange(float64(optimized.WallTime), float64(baseline.WallTime))
	return c
}

// relChange returns (new-old)/old. A zero baseline makes the relative change
// undefined: 0 → 0 is genuinely "no change", but 0 → n>0 is an unbounded
// regression, and reporting it as 0 ("+0%") would mask it in a reproduction
// table. It is returned as NaN and rendered as "n/a" by Pct/Pct1; Aggregated
// skips NaN terms.
func relChange(new, old float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.NaN()
	}
	return (new - old) / old
}

// Pct formats a fraction as a signed percentage, e.g. -0.5 → "-50%".
// Undefined deltas (NaN, from a zero baseline) render as "n/a".
func Pct(f float64) string {
	if math.IsNaN(f) {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", f*100)
}

// Pct1 formats a fraction as a signed percentage with one decimal, or "n/a"
// for an undefined (NaN) delta.
func Pct1(f float64) string {
	var buf [24]byte
	return string(appendPct1(buf[:0], f))
}

// appendPct1 appends Pct1(f) to out without boxing f: the digits are
// fmt's %+.1f%%, a sign always included.
func appendPct1(out []byte, f float64) []byte {
	if math.IsNaN(f) {
		return append(out, "n/a"...)
	}
	p := f * 100
	if !math.Signbit(p) && !math.IsInf(p, 1) {
		out = append(out, '+') // strconv signs only negatives and +Inf
	}
	out = strconv.AppendFloat(out, p, 'f', 1, 64)
	return append(out, '%')
}

// Aggregate summarizes a set of comparisons with arithmetic means of the
// relative deltas, matching how the paper aggregates "average performance
// improvement across all benchmarks" (Tables 2–4).
type Aggregate struct {
	N               int
	ExitsDelta      float64
	TimerExitsDelta float64
	ThroughputDelta float64
	RuntimeDelta    float64
}

// Aggregated computes the mean deltas over comps. Undefined (NaN) deltas —
// zero-baseline comparisons — are skipped per metric so one degenerate
// benchmark cannot poison a table-wide mean; a metric undefined in every
// comparison stays NaN (rendered "n/a").
func Aggregated(comps []Comparison) Aggregate {
	agg := Aggregate{N: len(comps)}
	if len(comps) == 0 {
		return agg
	}
	var exits, timer, thr, rt nanMean
	for _, c := range comps {
		exits.add(c.ExitsDelta)
		timer.add(c.TimerExitsDelta)
		thr.add(c.ThroughputDelta)
		rt.add(c.RuntimeDelta)
	}
	agg.ExitsDelta = exits.mean()
	agg.TimerExitsDelta = timer.mean()
	agg.ThroughputDelta = thr.mean()
	agg.RuntimeDelta = rt.mean()
	return agg
}

// nanMean accumulates a mean over the defined (non-NaN) terms only.
type nanMean struct {
	sum float64
	n   int
}

func (m *nanMean) add(x float64) {
	if math.IsNaN(x) {
		return
	}
	m.sum += x
	m.n++
}

func (m *nanMean) mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.sum / float64(m.n)
}

// GeoMeanRatios computes the geometric mean of (1+delta) ratios and returns
// it as a delta. Robust against a single outlier benchmark; reported
// alongside the arithmetic mean.
func GeoMeanRatios(deltas []float64) float64 {
	if len(deltas) == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, d := range deltas {
		if math.IsNaN(d) {
			continue // undefined (zero-baseline) delta: no defined ratio
		}
		r := 1 + d
		if r <= 0 {
			r = 1e-9
		}
		sum += math.Log(r)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum/float64(n)) - 1
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
