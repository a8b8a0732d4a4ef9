package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"paratick/internal/experiment"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/perf"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/trace"
)

// probeSamples is how many samples each layer probe takes; probes report
// the p10, the least-disturbed sample.
const probeSamples = 10

// probes collects per-layer metrics in a fixed order.
type probes struct {
	metrics []metric
}

func (p *probes) add(name, unit string, v float64) {
	p.metrics = append(p.metrics, metric{name, unit, v})
}

// timeEach times fn probeSamples times and returns the p10 in the unit.
func timeEach(unit time.Duration, fn func() error) (float64, error) {
	xs := make([]float64, probeSamples)
	for i := range xs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0)) / float64(unit)
	}
	return quantile(xs, 0.1), nil
}

// perCall returns the p10 over samples of the mean ns per call of fn across
// reps calls.
func perCall(reps int, fn func()) float64 {
	v, _ := timeEach(time.Nanosecond, func() error {
		for i := 0; i < reps; i++ {
			fn()
		}
		return nil
	})
	return v / float64(reps)
}

// kernelProbes reuses the frozen -perf-suite kernel bodies for the engine
// and timer-wheel layers, reporting ns per kernel op.
var kernelProbes = []struct{ kernel, metric string }{
	{"engine/schedule-fire", "sim.schedule_fire_ns"},
	{"engine/batch-dispatch", "sim.batch_dispatch_ns"},
	{"engine/horizon-cascade", "sim.horizon_cascade_ns"},
	{"wheel/add-cancel", "guest.wheel_add_cancel_ns"},
	{"wheel/next-expiry-dense", "guest.wheel_next_expiry_ns"},
	{"wheel/advance-dense", "guest.wheel_advance_dense_ns"},
}

// kernelBenchtime is each testing.Benchmark sample's target duration.
const kernelBenchtime = "30ms"

func (p *probes) kernels() error {
	testing.Init()
	if err := flag.Set("test.benchtime", kernelBenchtime); err != nil {
		return err
	}
	byName := map[string]perf.Kernel{}
	for _, k := range perf.Kernels() {
		byName[k.Name] = k
	}
	for _, kp := range kernelProbes {
		k, ok := byName[kp.kernel]
		if !ok {
			return fmt.Errorf("perf kernel %q not found", kp.kernel)
		}
		xs := make([]float64, probeSamples)
		for i := range xs {
			r := testing.Benchmark(k.Fn)
			if r.N == 0 {
				return fmt.Errorf("perf kernel %q failed", kp.kernel)
			}
			xs[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		}
		p.add(kp.metric, "ns", quantile(xs, 0.1))
	}
	return nil
}

// barrier times one quantum of an empty 4-lane, 2-shard coordinator: the
// shard hand-off, mailbox drain, and barrier hook with no events to run.
func (p *probes) barrier() error {
	se, err := sim.NewSharded(1, 4, 2, sim.Millisecond)
	if err != nil {
		return err
	}
	p.add("sim.barrier_ns", "ns", perCall(200, func() { se.RunUntil(se.Now() + sim.Millisecond) }))
	return nil
}

type schedEntity struct{ node sched.Node }

func (e *schedEntity) SchedNode() *sched.Node { return &e.node }

// scheduler times one PickNext+Ran+Enqueue rotation on the 16-CPU machine
// with four vCPUs queued per CPU.
func (p *probes) scheduler(kind sched.Kind) error {
	topo := hw.SmallTopology()
	s, err := sched.New(kind, topo, 6*sim.Millisecond)
	if err != nil {
		return err
	}
	n := topo.NumCPUs()
	ents := make([]schedEntity, 4*n)
	for i := range ents {
		ents[i].node.Key = uint64(i)
		s.Enqueue(hw.CPUID(i%n), &ents[i], 0)
	}
	var now sim.Time
	i := 0
	ok := true
	v := perCall(20000, func() {
		cpu := hw.CPUID(i % n)
		i++
		now += 10 * sim.Microsecond
		e := s.PickNext(cpu, now)
		if e == nil {
			ok = false
			return
		}
		s.Ran(e, 10*sim.Microsecond)
		s.Enqueue(cpu, e, now)
	})
	if !ok {
		return fmt.Errorf("sched %v: PickNext found an empty queue", kind)
	}
	p.add(fmt.Sprintf("sched.%v.enqueue_pick_ns", kind), "ns", v)
	return nil
}

// observeRecord times the metrics histogram and the trace ring, the
// per-exit bookkeeping layers.
func (p *probes) observeRecord() {
	var h metrics.Histogram
	i := 0
	p.add("metrics.observe_ns", "ns", perCall(100000, func() {
		h.Observe(sim.Time(i%1000+1) * sim.Microsecond)
		i++
	}))
	buf := trace.NewBuffer(4096)
	ev := trace.Event{Kind: trace.KindExit, VM: "vm0", Detail: "msr-write"}
	p.add("trace.record_ns", "ns", perCall(100000, func() {
		ev.When++
		buf.Record(ev)
	}))
}

// snapshot saves the workload's world at mid-run and loads it into a
// rebuilt world, checking the round trip is byte-exact.
func (p *probes) snapshot(sc experiment.Scenario, seed uint64, mid sim.Time) error {
	var saves, loads []float64
	size := 0
	for i := 0; i < probeSamples; i++ {
		s, l, n, err := snapshotRoundTrip(sc, seed, mid)
		if err != nil {
			return err
		}
		saves = append(saves, float64(s)/float64(time.Microsecond))
		loads = append(loads, float64(l)/float64(time.Microsecond))
		size = n
	}
	p.add("snap.save_us", "us", quantile(saves, 0.1))
	p.add("snap.load_us", "us", quantile(loads, 0.1))
	p.add("snap.bytes", "bytes", float64(size))
	return nil
}

// checkpoint times the CLI's checkpoint path: freeze the reference scenario
// at 10 ms, then resume it to completion.
func (p *probes) checkpoint(seed uint64) error {
	opts := experiment.DefaultOptions()
	opts.Scale = benchScale
	sc := experiment.ReferenceScenario(opts)
	var ck *experiment.Checkpoint
	v, err := timeEach(time.Millisecond, func() (err error) {
		ck, err = experiment.CheckpointScenario(sc, seed, 10*sim.Millisecond)
		return err
	})
	if err != nil {
		return err
	}
	p.add("experiment.checkpoint_ms", "ms", v)
	v, err = timeEach(time.Millisecond, func() error {
		_, err := experiment.ResumeScenario(sc, ck)
		return err
	})
	if err != nil {
		return err
	}
	p.add("experiment.resume_ms", "ms", v)
	return nil
}

// build times constructing the workload's host and VMs (no workload setup)
// fresh, and through a warmed HostArena that recycles them.
func (p *probes) build(sc experiment.Scenario, seed uint64) error {
	cfg := hostConfig(sc)
	buildVMs := func(h *kvm.Host) error {
		for _, vs := range sc.VMs {
			gcfg, placement, err := vmShape(cfg, vs)
			if err != nil {
				return err
			}
			if _, err := h.NewVM(vs.Name, gcfg, placement); err != nil {
				return err
			}
		}
		return nil
	}
	fresh, err := timeEach(time.Microsecond, func() error {
		se, err := newCoordinator(sc, cfg, seed)
		if err != nil {
			return err
		}
		h, err := kvm.NewHostOn(se, cfg)
		if err != nil {
			return err
		}
		return buildVMs(h)
	})
	if err != nil {
		return err
	}
	se, err := newCoordinator(sc, cfg, seed)
	if err != nil {
		return err
	}
	var arena kvm.HostArena
	arenaBuild := func() error {
		se.Reset(seed)
		h, err := arena.NewHostOn(se, cfg)
		if err != nil {
			return err
		}
		return buildVMs(h)
	}
	if err := arenaBuild(); err != nil {
		return err
	}
	pooled, err := timeEach(time.Microsecond, arenaBuild)
	if err != nil {
		return err
	}
	p.add("kvm.fresh_build_us", "us", fresh)
	p.add("kvm.arena_build_us", "us", pooled)
	return nil
}

// runners times each of the nine -run all runners over the warm passes of
// one pooled suite runner.
func (p *probes) runners(seed uint64) error {
	r := newSuiteRunner(false)
	walls := make([][]float64, len(suite))
	for pass := 0; pass <= probeSamples; pass++ {
		if _, err := r.run(seed); err != nil {
			return err
		}
		if pass == 0 {
			continue // the cold pass builds the pool
		}
		for i, d := range r.stepWall {
			walls[i] = append(walls[i], float64(d)/float64(time.Millisecond))
		}
	}
	for i, s := range suite {
		p.add("experiment."+s.name+"_ms", "ms", quantile(walls[i], 0.1))
	}
	return nil
}
