// Package perf pins the benchmark kernels behind the -perf-suite regression
// gate of cmd/paratick-bench. Each kernel is a self-contained testing.B
// function exercising one hot path of the simulator through its public API:
// the guest timer wheel (add/cancel, idle-entry NextExpiry, sparse and dense
// AdvanceTo), the sim event engine, and one small end-to-end experiment.
//
// The kernels deliberately duplicate the shapes of the in-package
// *_bench_test.go benchmarks rather than importing them: test files cannot
// be imported, and a perf package imported from the packages under test
// would cycle. Keeping the kernels here, frozen, also means the regression
// gate compares like with like across commits even when the exploratory
// in-package benchmarks evolve. When a kernel changes shape, the committed
// baseline (BENCH_PR10.json) must be regenerated in the same commit — see
// EXPERIMENTS.md.
package perf

import (
	"fmt"
	"testing"

	"paratick/internal/core"
	"paratick/internal/experiment"
	"paratick/internal/guest"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/workload"
)

// Kernel is one pinned benchmark of the regression suite.
type Kernel struct {
	// Name identifies the kernel in suite output and baselines; renaming a
	// kernel orphans its baseline entry, so treat names as stable.
	Name string
	// Desc is a one-line summary printed by -perf-suite.
	Desc string
	// Fn is the benchmark body, run via testing.Benchmark.
	Fn func(b *testing.B)
	// MaxAllocs is an absolute allocs/op ceiling enforced by -perf-suite on
	// every run, independent of any baseline: the zero value demands a
	// zero-allocation steady state (the contract for every wheel and engine
	// kernel), and a negative value disables the check. Unlike the baseline
	// comparison this cannot drift — a regenerated baseline with worse
	// numbers still fails the ceiling.
	MaxAllocs int64
}

// Kernels returns the suite in fixed order.
func Kernels() []Kernel {
	return []Kernel{
		{
			Name: "wheel/add-cancel",
			Desc: "timer wheel Add+Cancel cycle (guest sleep/wake hot path)",
			Fn:   wheelAddCancel,
		},
		{
			Name: "wheel/next-expiry-dense",
			Desc: "NextExpiry on 10k-timer wheel with churn of its earliest timer",
			Fn:   wheelNextExpiryDense,
		},
		{
			Name: "wheel/advance-sparse",
			Desc: "AdvanceTo across 1M empty jiffies firing one timer",
			Fn:   wheelAdvanceSparse,
		},
		{
			Name: "wheel/advance-dense",
			Desc: "1-jiffy AdvanceTo with 10k re-queueing timers",
			Fn:   wheelAdvanceDense,
		},
		{
			Name: "engine/schedule-fire",
			Desc: "sim engine schedule+dispatch cycle",
			Fn:   engineScheduleFire,
		},
		{
			Name: "engine/cancel-heavy",
			Desc: "sim engine cancel+re-arm against a 1k-deep queue",
			Fn:   engineCancelHeavy,
		},
		{
			Name: "engine/batch-dispatch",
			Desc: "StepBatch draining 64 same-instant events per op",
			Fn:   engineBatchDispatch,
		},
		{
			Name: "engine/horizon-cascade",
			Desc: "far-future schedule + radix redistribution + fire, 128 events/op",
			Fn:   engineHorizonCascade,
		},
		{
			Name:      "e2e/table1",
			Desc:      "Table 1 experiment end to end at smoke scale (events/sec)",
			Fn:        e2eTable1,
			MaxAllocs: 500,
		},
		{
			Name:      "e2e/shardfleet",
			Desc:      "64-VM shard fleet at shards=4, quantum 1ms (events/sec)",
			Fn:        e2eShardFleet,
			MaxAllocs: shardFleetMaxAllocs,
		},
		{
			Name:      "e2e/fleet-reuse",
			Desc:      "8-VM sync fleet recycled through one Session, mode alternating (events/sec)",
			Fn:        e2eFleetReuse,
			MaxAllocs: fleetReuseMaxAllocs,
		},
	}
}

func wheelAddCancel(b *testing.B) {
	w := guest.NewTimerWheel(sim.Millisecond)
	tm := &guest.SoftTimer{Fire: func(sim.Time) {}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Deadline = sim.Time(i%1000+1) * sim.Millisecond
		w.Add(tm)
		w.Cancel(tm)
	}
}

func wheelNextExpiryDense(b *testing.B) {
	const n = 10_000
	w := guest.NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(1)
	for i := 0; i < n; i++ {
		w.Add(&guest.SoftTimer{
			Deadline: rng.Between(sim.Second, 2000*sim.Second),
			Fire:     func(sim.Time) {},
		})
	}
	wakeup := &guest.SoftTimer{Fire: func(sim.Time) {}}
	b.ReportAllocs()
	b.ResetTimer()
	var sink sim.Time
	for i := 0; i < b.N; i++ {
		// The wakeup is the earliest timer, so each NextExpiry after the
		// cancel scans the bucket of the next-earliest timer.
		wakeup.Deadline = sim.Time(i%1000+1) * sim.Millisecond
		w.Add(wakeup)
		sink = w.NextExpiry()
		w.Cancel(wakeup)
		sink = w.NextExpiry()
	}
	_ = sink
}

func wheelAdvanceSparse(b *testing.B) {
	const gap = 1_000_000 // jiffies per advance
	w := guest.NewTimerWheel(sim.Millisecond)
	tm := &guest.SoftTimer{Fire: func(sim.Time) {}}
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now > sim.Forever-2*gap*sim.Millisecond {
			// Rewind before simulated time saturates at sim.Forever.
			w = guest.NewTimerWheel(sim.Millisecond)
			now = 0
		}
		now += gap * sim.Millisecond
		tm.Deadline = now
		w.Add(tm)
		if w.AdvanceTo(now) != 1 {
			b.Fatal("sparse advance did not fire the timer")
		}
	}
}

func wheelAdvanceDense(b *testing.B) {
	const n = 10_000
	w := guest.NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(1)
	span := func() sim.Time { return rng.Between(sim.Millisecond, 20*sim.Second) }
	for i := 0; i < n; i++ {
		t := &guest.SoftTimer{Deadline: span()}
		// Bind the requeue closure once per timer: rebuilding it per fire
		// allocated 48 B on every expiry and was the kernel's only
		// steady-state allocation.
		t.Fire = func(now sim.Time) {
			t.Deadline = now + span()
			w.Add(t)
		}
		w.Add(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += sim.Millisecond
		w.AdvanceTo(now)
	}
}

func engineScheduleFire(b *testing.B) {
	e := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, "b", func(*sim.Engine) {})
		e.Step()
	}
}

func engineCancelHeavy(b *testing.B) {
	e := sim.NewEngine(1)
	const depth = 1024
	ring := make([]sim.Event, depth)
	for i := range ring {
		ring[i] = e.After(sim.Time(i+1), "seed", func(*sim.Engine) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % depth
		e.Cancel(ring[slot])
		ring[slot] = e.After(sim.Time(depth+i+1), "rearm", func(*sim.Engine) {})
	}
}

// engineBatchDispatch measures the batched same-instant dispatch path:
// every op schedules 64 events for the same instant, one bucket too long to
// drain whole, which redistributes into the single-instant bucket 0 and
// drains into the sorted batch; one StepBatch fires them all — the workload
// shape of a tick wave across a fleet's vCPUs.
func engineBatchDispatch(b *testing.B) {
	e := sim.NewEngine(1)
	const fanout = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < fanout; j++ {
			e.After(1, "b", func(*sim.Engine) {})
		}
		if e.StepBatch() != fanout {
			b.Fatal("batch did not drain the same-instant group")
		}
	}
}

// engineHorizonCascade measures far-future keys: every op schedules 128
// events 2^16 ns apart, starting 2^27 ns out, so they land in high buckets
// of the radix queue, then runs across the idle gap, which redistributes
// them down bucket by bucket until each drains, and fires them all — the
// long-sleep / far-deadline shape dynticks guests produce. (The name is
// from the wheel-and-heap queue this kernel first measured.)
func engineHorizonCascade(b *testing.B) {
	e := sim.NewEngine(1)
	const spread = 128
	// Twice this is where every op's events start.
	const horizon = sim.Time(1) << 26
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Now() > sim.Forever/2 {
			// Rewind before simulated time saturates at sim.Forever.
			e.Reset(1)
		}
		base := e.Now() + 2*horizon
		for j := 0; j < spread; j++ {
			e.At(base+sim.Time(j)<<16, "c", func(*sim.Engine) {})
		}
		e.RunUntil(base + sim.Time(spread)<<16)
	}
}

// shardFleetMaxAllocs bounds the sharded end-to-end kernel. Every op
// builds the 64-VM world from scratch through the public API (no arena),
// so what remains is construction: 6,590 allocs/op, measured on a 2-vCPU
// Xeon with Go 1.24 (11.2k before the engine and guest timer wheels
// stopped growing a slice per bucket). Until device requests, completion
// handlers, and cross-lane IRQ records were recycled, ~110k of a 122k
// count were per-I/O and per-delivery allocations — exactly the per-event
// growth the ceiling exists to catch, whether in the I/O path, the barrier
// loop, the mailbox drain, or the worker hand-off. The ceiling is the
// measured count plus 25%.
const shardFleetMaxAllocs = 8_240

// e2eShardFleet runs the canonical lane-mode workload end to end: 64
// socket-contained VMs on the paper topology, cross-socket IPI ring,
// 1ms quantum, four shard workers. It is the suite's only multi-goroutine
// kernel — events/sec here is what the sharded-scaling experiment records.
func e2eShardFleet(b *testing.B) {
	opts := experiment.DefaultOptions()
	opts.Scale = 0.02
	opts.Workers = 1
	opts.Shards = 4
	m := &metrics.Meter{}
	opts.Meter = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunShardFleet(opts, 64); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(m.Events())/secs, "events/sec")
	}
}

// fleetReuseMaxAllocs bounds the recycling bill of a full fleet run: after
// warm-up every VM, vCPU, kernel, task, timer wheel, and deadline timer
// comes back out of the VM arena, and RunScenarioInto refills one
// caller-owned ScenarioResult in place, so the steady state is a few dozen
// scenario-spec allocations — not construction, not results. The ceiling
// is the regression tripwire for a reuse path quietly falling back to
// building fresh (which costs tens of thousands).
const fleetReuseMaxAllocs = 300

// fleetReuseScenario is the pinned fleet shape: 8 sync-workload VMs of 8
// vCPUs each on the paper topology. The mode is the reconfiguration axis the
// kernel alternates between runs.
func fleetReuseScenario(mode core.Mode, dur sim.Time) experiment.Scenario {
	s := experiment.Scenario{
		Name:     "fleet-reuse",
		Duration: dur,
	}
	for n := 0; n < 8; n++ {
		s.VMs = append(s.VMs, experiment.VMSpec{
			Name:     fmt.Sprintf("vm%d", n),
			Mode:     mode,
			VCPUs:    8,
			TaskHint: workload.DefaultSyncBench().Threads,
			Setup: func(vm *kvm.VM) error {
				bench := workload.DefaultSyncBench()
				bench.Duration = dur
				return bench.Spawn(vm.Kernel())
			},
		})
	}
	return s
}

// e2eFleetReuse measures the VM arena's steady state: one Session runs the
// same 8-VM sync fleet repeatedly, alternating the tick mode every iteration
// so each run re-acquires every recycled VM under a reconfiguration rather
// than a plain repeat. Two warm-up runs (one per mode) populate the arena
// and the per-mode policy caches; the meter attaches afterwards so warm-up
// events don't inflate the rate.
func e2eFleetReuse(b *testing.B) {
	const dur = 200 * sim.Millisecond
	modes := [2]core.Mode{core.Periodic, core.Paratick}
	sess := experiment.NewSession()
	var res experiment.ScenarioResult
	for _, mode := range modes {
		if err := sess.RunScenarioInto(fleetReuseScenario(mode, dur), 1, nil, &res); err != nil {
			b.Fatal(err)
		}
	}
	m := &metrics.Meter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.RunScenarioInto(fleetReuseScenario(modes[i%2], dur), 1, m, &res); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(m.Events())/secs, "events/sec")
	}
}

func e2eTable1(b *testing.B) {
	opts := experiment.DefaultOptions()
	opts.Scale = 0.02
	opts.Workers = 1
	opts.Pool = experiment.NewWorkerPool()
	// Warm the pool: the first run builds the world the steady state reuses.
	// The meter attaches afterwards so warm-up events don't inflate the rate.
	if _, err := experiment.RunTable1(opts); err != nil {
		b.Fatal(err)
	}
	m := &metrics.Meter{}
	opts.Meter = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunTable1(opts); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(m.Events())/secs, "events/sec")
	}
}
