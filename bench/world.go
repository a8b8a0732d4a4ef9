package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"paratick/internal/experiment"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// maxSimTime bounds workload-driven scenarios, as the experiment layer does.
const maxSimTime = 1000 * sim.Second

// world is a scenario built layer by layer through the public constructors
// of sim and kvm, so the benchmark can tap the engine and time each layer
// from outside. Lane-mode scenarios run on one shard: the dispatch observer
// must be called from one goroutine. Output does not depend on the shard
// count, so a world's result digest equals the Session op's.
type world struct {
	sc   experiment.Scenario
	se   *sim.ShardedEngine
	host *kvm.Host
	vms  []*kvm.VM
}

// buildWorld mirrors the experiment layer's construction order — host,
// then each VM created and set up in spec order, then cross-VM streams,
// completion hooks, and starts — which the seed's RNG streams depend on. It
// covers the scenario fields the benchmark's worlds set; the digest check
// against an experiment-layer run catches any divergence.
func buildWorld(sc experiment.Scenario, seed uint64) (*world, error) {
	cfg := hostConfig(sc)
	se, err := newCoordinator(sc, cfg, seed)
	if err != nil {
		return nil, err
	}
	host, err := kvm.NewHostOn(se, cfg)
	if err != nil {
		return nil, err
	}
	w := &world{sc: sc, se: se, host: host}
	for _, vs := range sc.VMs {
		gcfg, placement, err := vmShape(cfg, vs)
		if err != nil {
			return nil, err
		}
		vm, err := host.NewVM(vs.Name, gcfg, placement)
		if err != nil {
			return nil, err
		}
		if vs.Setup != nil {
			if err := vs.Setup(vm); err != nil {
				return nil, fmt.Errorf("setup %s: %w", vs.Name, err)
			}
		}
		w.vms = append(w.vms, vm)
	}
	for _, ci := range sc.CrossIPI {
		if err := host.AddIPIStream(w.vms[ci.Src], w.vms[ci.Dst], ci.DstVCPU, ci.Period, ci.Latency, ci.Phase); err != nil {
			return nil, err
		}
	}
	if sc.Duration == 0 {
		w.stopWhenDone()
	}
	for _, vm := range w.vms {
		vm.Start()
	}
	return w, nil
}

// hostConfig resolves the scenario's host configuration.
func hostConfig(sc experiment.Scenario) kvm.Config {
	cfg := kvm.DefaultConfig()
	if sc.Topology.Sockets > 0 {
		cfg.Topology = sc.Topology
	}
	cfg.SchedPolicy = sc.SchedPolicy
	return cfg
}

// vmShape resolves a VM spec's guest configuration and pCPU placement.
func vmShape(cfg kvm.Config, vs experiment.VMSpec) (guest.Config, []hw.CPUID, error) {
	placement := vs.Placement
	if placement == nil {
		var err error
		placement, err = cfg.Topology.SpreadAcross(vs.VCPUs, max(vs.Sockets, 1))
		if err != nil {
			return guest.Config{}, nil, err
		}
	}
	gcfg := guest.DefaultConfig()
	gcfg.Mode = vs.Mode
	gcfg.TaskHint = vs.TaskHint
	return gcfg, placement, nil
}

// newCoordinator returns the engine coordinator for the scenario: one lane
// per socket on a single shard in lane mode, else a wrapped legacy engine.
func newCoordinator(sc experiment.Scenario, cfg kvm.Config, seed uint64) (*sim.ShardedEngine, error) {
	if sc.Quantum > 0 {
		return sim.NewSharded(seed, cfg.Topology.Sockets, 1, sc.Quantum)
	}
	return sim.WrapEngine(sim.NewEngine(seed)), nil
}

// stopWhenDone ends a workload-driven run once every workload VM finishes:
// checked at quantum barriers in lane mode, by a completion hook otherwise.
func (w *world) stopWhenDone() {
	if w.sc.Quantum > 0 {
		w.se.SetBarrierHook(func(sim.Time) {
			if w.workloadsDone() {
				w.se.Stop()
			}
		})
		return
	}
	remaining := 0
	for i, vs := range w.sc.VMs {
		if !vs.Workload {
			continue
		}
		remaining++
		w.vms[i].OnWorkloadDone = func(sim.Time) {
			remaining--
			if remaining == 0 {
				w.se.Stop()
			}
		}
	}
}

func (w *world) workloadsDone() bool {
	for i, vs := range w.sc.VMs {
		if done, _ := w.vms[i].WorkloadDone(); vs.Workload && !done {
			return false
		}
	}
	return true
}

// deadline is the instant the run ends at.
func (w *world) deadline() sim.Time {
	if w.sc.Duration > 0 {
		return w.sc.Duration
	}
	return maxSimTime
}

// run executes the world to its deadline and returns the host time taken.
func (w *world) run() time.Duration {
	t0 := time.Now()
	w.se.RunUntil(w.deadline())
	return time.Since(t0)
}

// result assembles the per-VM results exactly as a Session run reports
// them.
func (w *world) result() *experiment.ScenarioResult {
	out := &experiment.ScenarioResult{Events: w.se.Fired(), Results: make([]metrics.Result, len(w.vms))}
	for i, vm := range w.vms {
		vm.ResultInto(&out.Results[i], w.sc.VMs[i].Name)
		out.Results[i].Events = out.Events
	}
	return out
}

// save serializes the world's full mutable state: the engines, then the
// host.
func (w *world) save() ([]byte, error) {
	var enc snap.Encoder
	w.se.Save(&enc)
	if err := w.host.Save(&enc); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// load restores a snapshot into a freshly built world of the same shape and
// checks the decoder consumed every byte.
func (w *world) load(data []byte) error {
	w.se.Reset(0)
	dec := snap.NewDecoder(data)
	if err := w.se.Load(dec); err != nil {
		return err
	}
	if err := w.host.Load(dec); err != nil {
		return err
	}
	if n := dec.Remaining(); n != 0 {
		return fmt.Errorf("%d bytes left after snapshot load", n)
	}
	return nil
}

// snapshotRoundTrip runs a world to mid, saves it, loads the bytes into a
// rebuilt world, and checks the re-save is byte-equal. It returns the save
// and load times and the snapshot size.
func snapshotRoundTrip(sc experiment.Scenario, seed uint64, mid sim.Time) (save, load time.Duration, size int, err error) {
	w, err := buildWorld(sc, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	w.se.RunUntil(mid)
	t0 := time.Now()
	data, err := w.save()
	save = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	fresh, err := buildWorld(sc, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 = time.Now()
	err = fresh.load(data)
	load = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	again, err := fresh.save()
	if err != nil {
		return 0, 0, 0, err
	}
	if !bytes.Equal(data, again) {
		return 0, 0, 0, fmt.Errorf("snapshot of %s at %v re-saved as %d bytes, want %d identical bytes", sc.Name, mid, len(again), len(data))
	}
	return save, load, len(data), nil
}

// Label classes of the dispatch ledger: every engine event label maps to
// the layer whose handler it runs.
const (
	classGuestStep = iota
	classKVMExit
	classKVMHlt
	classKVMInject
	classKVMRemote
	classSchedWakeup
	classSchedTick
	classHWTimer
	classIODev
	classOther
	numClasses
)

var classNames = [numClasses]string{
	"guest.step", "kvm.exit", "kvm.hlt", "kvm.inject", "kvm.remote",
	"sched.wakeup", "sched.tick", "hw.timer", "iodev.complete", "other",
}

// classOf maps an engine event label to its ledger class.
func classOf(label string) int {
	switch label {
	case "pcpu-run":
		return classGuestStep
	case "pcpu-exit":
		return classKVMExit
	case "pcpu-hlt", "pcpu-poll":
		return classKVMHlt
	case "pcpu-irq-exit":
		return classKVMInject
	case "remote-irq", "ipi-stream":
		return classKVMRemote
	case "pcpu-wakeup":
		return classSchedWakeup
	}
	switch {
	case strings.HasPrefix(label, "ptimer:"):
		return classSchedTick
	case strings.HasPrefix(label, "timer:"):
		return classHWTimer
	case strings.HasPrefix(label, "io:"), strings.HasPrefix(label, "io-coalesce:"):
		return classIODev
	}
	return classOther
}

// ledger is the dispatch tap: the host time between consecutive observer
// callbacks is charged to the earlier event's class, so each class's time
// is its handlers' self time plus the engine's dispatch overhead.
type ledger struct {
	events [numClasses]uint64
	ns     [numClasses]int64
	// unknown counts labels the class map does not know, so a renamed
	// handler label shows up instead of silently joining "other".
	unknown map[string]uint64
	last    int
	prev    time.Time
}

func newLedger() *ledger { return &ledger{unknown: map[string]uint64{}, last: -1} }

func (l *ledger) observe(label string, _ sim.Time) {
	now := time.Now()
	if l.last >= 0 {
		l.ns[l.last] += int64(now.Sub(l.prev))
	}
	c := classOf(label)
	if c == classOther {
		l.unknown[label]++
	}
	l.events[c]++
	l.last = c
	l.prev = now
}

// close charges the time after the last callback to the last event.
func (l *ledger) close() {
	if l.last >= 0 {
		l.ns[l.last] += int64(time.Since(l.prev))
	}
}

// traceWorld builds the scenario at seed and runs it with the ledger
// installed, returning the ledger, the traced run's host time, and the
// finished world.
func traceWorld(sc experiment.Scenario, seed uint64) (*ledger, time.Duration, *world, error) {
	w, err := buildWorld(sc, seed)
	if err != nil {
		return nil, 0, nil, err
	}
	l := newLedger()
	w.se.SetObserver(l.observe)
	d := w.run()
	l.close()
	return l, d, w, nil
}
