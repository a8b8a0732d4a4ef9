package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"paratick/internal/experiment"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
)

// minTraceReps is the fewest untraced/traced world pairs a layer pass runs.
const minTraceReps = 3

// layerPass is the traced, per-layer view of one workload's world.
type layerPass struct {
	probes
	spec      *workloadSpec
	attempted int
	failed    int
	firstErr  error
}

// worldLayers runs the workload's world at the base seed through the public
// constructors, alternating untraced and traced runs until budget elapses,
// and reports the dispatch ledger, the run's exact simulated counts, and the
// snapshot and construction probes on that world. Every run's result must
// match the unpooled reference digest.
func worldLayers(spec *workloadSpec, base uint64, budget time.Duration, w io.Writer) (*layerPass, error) {
	ref, err := worldReference(spec.world, base)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", spec.name, err)
	}
	lp := &layerPass{spec: spec}
	check := func(wd *world, traced *ledger) {
		lp.attempted++
		err := error(nil)
		if d := resultDigest(wd.result()); d != ref {
			err = fmt.Errorf("%s world at seed %d: digest %v, reference %v", spec.name, base, d, ref)
		} else if traced != nil && traced.total() != wd.se.Fired() {
			err = fmt.Errorf("%s ledger counted %d events, engine fired %d", spec.name, traced.total(), wd.se.Fired())
		}
		if err != nil {
			lp.failed++
			if lp.firstErr == nil {
				lp.firstErr = err
			}
		}
	}
	var plain, traced []float64
	var perClass [numClasses][]float64
	var last *ledger
	var lastWorld *world
	start := time.Now()
	for rep := 0; rep < minTraceReps || time.Since(start) < budget; rep++ {
		wd, err := buildWorld(spec.world, base)
		if err != nil {
			return nil, err
		}
		plain = append(plain, float64(wd.run()))
		check(wd, nil)
		l, d, wd, err := traceWorld(spec.world, base)
		if err != nil {
			return nil, err
		}
		traced = append(traced, float64(d))
		check(wd, l)
		for c := range perClass {
			if l.events[c] > 0 {
				perClass[c] = append(perClass[c], float64(l.ns[c])/float64(l.events[c]))
			}
		}
		last, lastWorld = l, wd
	}
	overhead := quantile(traced, 0.5) / quantile(plain, 0.5)
	for c, name := range classNames {
		lp.add(name+".events", "count", float64(last.events[c]))
		lp.add(name+".ns_per_event", "ns", quantile(perClass[c], 0.5))
	}
	lp.add("trace.overhead_x", "x", overhead)
	lp.printLedger(w, last, perClass, len(traced), quantile(plain, 0.5), overhead)

	res := lastWorld.result()
	var c metrics.Counters
	var wall sim.Time
	for i := range res.Results {
		c.Add(&res.Results[i].Counters)
		wall = max(wall, res.Results[i].WallTime)
	}
	lp.counters(&c)

	if err := lp.snapshot(spec.world, base, snapshotInstant(spec.world, wall)); err != nil {
		return nil, fmt.Errorf("%s: snapshot: %w", spec.name, err)
	}
	if err := lp.build(spec.world, base); err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	return lp, nil
}

// snapshotInstant is mid-run: half the scenario's duration, or half the
// longest VM's run for workload-driven scenarios, rounded up to the quantum
// grid in lane mode (state is only saveable at a barrier).
func snapshotInstant(sc experiment.Scenario, wall sim.Time) sim.Time {
	mid := sc.Duration / 2
	if mid == 0 {
		mid = wall / 2
	}
	if q := sc.Quantum; q > 0 && mid%q != 0 {
		mid = (mid/q + 1) * q
	}
	return mid
}

// counters reports the run's exact simulated counts, summed over VMs.
func (lp *layerPass) counters(c *metrics.Counters) {
	for r := metrics.ExitReason(0); r < metrics.NumExitReasons; r++ {
		lp.add("kvm.exits."+r.String(), "count", float64(c.Exits[r]))
	}
	lp.add("kvm.injections", "count", float64(c.Injections))
	lp.add("guest.ticks", "count", float64(c.GuestTicks))
	lp.add("guest.virtual_ticks", "count", float64(c.VirtualTicks))
	lp.add("guest.timer_arms", "count", float64(c.TimerArms))
	lp.add("guest.context_switches", "count", float64(c.ContextSw))
	lp.add("guest.wakeups", "count", float64(c.Wakeups))
	lp.add("iodev.ops", "count", float64(c.IOOps()))
	lp.add("kvm.timer_exit_frac", "fraction", ratio(float64(c.TimerExits()), float64(c.TotalExits())))
	lp.add("guest.useful_frac", "fraction", ratio(float64(c.GuestUseful), float64(c.BusyCycles())))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *ledger) total() uint64 {
	var n uint64
	for _, e := range l.events {
		n += e
	}
	return n
}

// printLedger prints each class's events and median self time, their sum
// against the untraced run's host time, and the labels no class claims.
func (lp *layerPass) printLedger(w io.Writer, l *ledger, perClass [numClasses][]float64, reps int, plainNs, overhead float64) {
	fmt.Fprintf(w, "ledger %s, world %q (%d traced runs; median host self time per class, unscaled):\n", lp.spec.name, lp.spec.world.Name, reps)
	var sum float64
	for c, name := range classNames {
		self := quantile(perClass[c], 0.5) * float64(l.events[c])
		sum += self
		fmt.Fprintf(w, "  %-15s %9d events %9.3f ms %8.1f ns/event\n", name, l.events[c], self/1e6, quantile(perClass[c], 0.5))
	}
	fmt.Fprintf(w, "  %-15s %9d events %9.3f ms traced self time vs %.3f ms untraced run; trace.overhead_x %.3f\n",
		"sum", l.total(), sum/1e6, plainNs/1e6, overhead)
	labels := make([]string, 0, len(l.unknown))
	for label := range l.unknown {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(w, "  unclassified label %q: %d events\n", label, l.unknown[label])
	}
}

// sharedProbes times the layers that do not depend on a workload's world:
// engine and wheel kernels, the lane barrier, both schedulers, metrics and
// trace bookkeeping, the checkpoint path, and each paper-suite runner.
func sharedProbes(base uint64) ([]metric, error) {
	var pr probes
	steps := []func() error{
		pr.kernels,
		pr.barrier,
		func() error { return pr.scheduler(sched.FIFO) },
		func() error { return pr.scheduler(sched.Fair) },
		func() error { pr.observeRecord(); return nil },
		func() error { return pr.checkpoint(base) },
		func() error { return pr.runners(base) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return pr.metrics, nil
}
