package paratick

import (
	"fmt"
	"strings"
	"time"

	"paratick/internal/metrics"
	"paratick/internal/trace"
)

// Report is the outcome of one scenario run: the paper's measured
// quantities plus the full exit breakdown.
type Report struct {
	Name string
	Mode TickMode

	// TotalExits and TimerExits are VM-exit counts; TimerExits covers
	// tick-management exits (TSC_DEADLINE writes, preemption-timer
	// expiries, tick interrupts stealing time from co-located vCPUs).
	TotalExits uint64
	TimerExits uint64
	// ExitBreakdown maps exit-reason name → count.
	ExitBreakdown map[string]uint64

	// VirtualTicks counts vector-235 injections (paratick only); GuestTicks
	// counts executed tick handlers; Injections counts all injected
	// interrupts.
	VirtualTicks uint64
	GuestTicks   uint64
	Injections   uint64

	// Cycle accounting: BusyCycles is the paper's "CPU cycles" throughput
	// proxy (useful work + guest kernel + host overhead).
	BusyCycles   time.Duration
	UsefulCycles time.Duration
	KernelCycles time.Duration
	HostOverhead time.Duration

	// ExecutionTime is the workload's simulated wall-clock runtime.
	ExecutionTime time.Duration

	// I/O totals (zero for compute-only workloads).
	IOOps            uint64
	IOBytes          uint64
	IOThroughputMBps float64

	// IdleTransitions counts idle-loop entries (≈ exits).
	IdleTransitions uint64
	Wakeups         uint64

	// Trace holds the recorded events when Scenario.TraceCapacity was set.
	Trace *trace.Buffer

	result metrics.Result
}

func newReport(s Scenario, res metrics.Result, tracer *trace.Buffer) *Report {
	c := &res.Counters
	breakdown := make(map[string]uint64)
	for r := metrics.ExitReason(0); r < metrics.NumExitReasons; r++ {
		if c.Exits[r] > 0 {
			breakdown[r.String()] = c.Exits[r]
		}
	}
	return &Report{
		Name:             s.Name,
		Mode:             s.Mode,
		TotalExits:       c.TotalExits(),
		TimerExits:       c.TimerExits(),
		ExitBreakdown:    breakdown,
		VirtualTicks:     c.VirtualTicks,
		GuestTicks:       c.GuestTicks,
		Injections:       c.Injections,
		BusyCycles:       time.Duration(c.BusyCycles()),
		UsefulCycles:     time.Duration(c.GuestUseful),
		KernelCycles:     time.Duration(c.GuestKernel),
		HostOverhead:     time.Duration(c.HostOverhead),
		ExecutionTime:    time.Duration(res.WallTime),
		IOOps:            c.IOOps(),
		IOBytes:          c.IOBytes(),
		IOThroughputMBps: res.IOThroughputMBps(),
		IdleTransitions:  c.IdleEnters,
		Wakeups:          c.Wakeups,
		Trace:            tracer,
		result:           res,
	}
}

// Summary renders the report for humans.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]\n", r.Name, r.Mode)
	fmt.Fprintf(&b, "  execution time : %v\n", r.ExecutionTime)
	fmt.Fprintf(&b, "  VM exits       : %d total, %d timer-related\n", r.TotalExits, r.TimerExits)
	for _, kv := range sortedBreakdown(r.ExitBreakdown) {
		fmt.Fprintf(&b, "    %-14s %d\n", kv.name, kv.count)
	}
	fmt.Fprintf(&b, "  ticks          : %d guest (%d virtual), %d injections\n",
		r.GuestTicks, r.VirtualTicks, r.Injections)
	fmt.Fprintf(&b, "  cycles         : %v busy (%v useful, %v guest-kernel, %v host)\n",
		r.BusyCycles, r.UsefulCycles, r.KernelCycles, r.HostOverhead)
	fmt.Fprintf(&b, "  idle/wakeups   : %d idle transitions, %d wakeups\n",
		r.IdleTransitions, r.Wakeups)
	if r.IOOps > 0 {
		fmt.Fprintf(&b, "  io             : %d ops, %d bytes, %.1f MB/s\n",
			r.IOOps, r.IOBytes, r.IOThroughputMBps)
	}
	if tick := &r.result.Counters.TickInterval; tick.Count() > 0 {
		fmt.Fprintf(&b, "  tick interval  : %s\n", tick)
	}
	if tbl := r.ExitLatencyTable(); tbl != nil {
		b.WriteString(indentBlock(tbl.String(), "  "))
	}
	if tbl := r.InjectLatencyTable(); tbl != nil {
		b.WriteString(indentBlock(tbl.String(), "  "))
	}
	return b.String()
}

// ExitLatencyTable returns the per-exit-reason handling-cost distribution
// (p50/p95/p99/max), or nil when the run recorded no exits.
func (r *Report) ExitLatencyTable() *metrics.Table {
	return metrics.ExitLatencyTable("exit handling cost", &r.result.Counters)
}

// InjectLatencyTable returns the pend-to-delivery latency distribution per
// interrupt-vector class, or nil when the run recorded no injections.
func (r *Report) InjectLatencyTable() *metrics.Table {
	return metrics.InjectLatencyTable("injection latency", &r.result.Counters)
}

// Result returns the underlying metrics snapshot (counters + wall time).
func (r *Report) Result() metrics.Result { return r.result }

// indentBlock prefixes every non-empty line of s with prefix.
func indentBlock(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	var b strings.Builder
	for _, ln := range lines {
		if ln != "" {
			b.WriteString(prefix)
			b.WriteString(ln)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

type breakdownKV struct {
	name  string
	count uint64
}

func sortedBreakdown(m map[string]uint64) []breakdownKV {
	out := make([]breakdownKV, 0, len(m))
	for n, c := range m {
		out = append(out, breakdownKV{n, c})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].count > out[j-1].count ||
			(out[j].count == out[j-1].count && out[j].name < out[j-1].name)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Comparison holds the paper's three headline metrics for an optimized run
// against the dynticks baseline.
type Comparison struct {
	Name      string
	Baseline  *Report
	Optimized *Report
	// ExitsDelta is the relative change in total VM exits (negative =
	// fewer); TimerExitsDelta the same for timer-related exits.
	ExitsDelta      float64
	TimerExitsDelta float64
	// ThroughputDelta is the relative change in system throughput
	// (positive = better): same work in k× fewer busy cycles.
	ThroughputDelta float64
	// RuntimeDelta is the relative change in execution time (negative =
	// faster).
	RuntimeDelta float64
	// IOThroughputDelta is the relative change in direct I/O throughput
	// (zero for workloads without I/O).
	IOThroughputDelta float64
}

func compareReports(base, opt *Report) *Comparison {
	mc := metrics.Compare(base.result, opt.result)
	c := &Comparison{
		Name:            base.Name,
		Baseline:        base,
		Optimized:       opt,
		ExitsDelta:      mc.ExitsDelta,
		TimerExitsDelta: mc.TimerExitsDelta,
		ThroughputDelta: mc.ThroughputDelta,
		RuntimeDelta:    mc.RuntimeDelta,
	}
	if base.IOThroughputMBps > 0 {
		c.IOThroughputDelta = opt.IOThroughputMBps/base.IOThroughputMBps - 1
	}
	return c
}

// Summary renders the comparison in the paper's terms.
func (c *Comparison) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s vs %s\n", c.Name, c.Optimized.Mode, c.Baseline.Mode)
	fmt.Fprintf(&b, "  VM exits          : %s (%d → %d; timer-related %s)\n",
		metrics.Pct1(c.ExitsDelta), c.Baseline.TotalExits, c.Optimized.TotalExits,
		metrics.Pct1(c.TimerExitsDelta))
	fmt.Fprintf(&b, "  system throughput : %s (busy cycles %v → %v)\n",
		metrics.Pct1(c.ThroughputDelta), c.Baseline.BusyCycles, c.Optimized.BusyCycles)
	fmt.Fprintf(&b, "  execution time    : %s (%v → %v)\n",
		metrics.Pct1(c.RuntimeDelta), c.Baseline.ExecutionTime, c.Optimized.ExecutionTime)
	if c.Baseline.IOThroughputMBps > 0 {
		fmt.Fprintf(&b, "  io throughput     : %s (%.1f → %.1f MB/s)\n",
			metrics.Pct1(c.IOThroughputDelta),
			c.Baseline.IOThroughputMBps, c.Optimized.IOThroughputMBps)
	}
	return b.String()
}
