package experiment

import (
	"bytes"
	"fmt"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// VMSpec describes one virtual machine inside a Scenario.
type VMSpec struct {
	Name       string
	Mode       core.Mode
	GuestHz    int // 0 → guest default (250)
	PolicyOpts core.Options
	// AdaptiveSpin enables the guest's optimistic-spin lock path.
	AdaptiveSpin sim.Time
	// TopUp enables the §4.1 frequency top-up (paratick mode only).
	TopUp bool
	// VCPUs/Sockets place the vCPUs via Topology.SpreadAcross. Placement,
	// when non-nil, pins them explicitly instead (overcommitted placements).
	VCPUs     int
	Sockets   int // 0 → 1
	Placement []hw.CPUID
	// Workload marks this VM's tasks as the scenario's completion condition:
	// a Scenario with Duration 0 runs until every workload VM finishes.
	Workload bool
	// TaskHint presizes the guest's task bookkeeping (task registry, vCPU
	// run queues) for roughly this many Setup-spawned tasks, so the first
	// run through a pooled VM does not grow those queues mid-flight. A
	// capacity hint only; 0 keeps the defaults.
	TaskHint int
	// Setup spawns the VM's tasks and devices. It must be deterministic and
	// re-runnable: checkpoint restore rebuilds the scenario by calling it
	// again, so it must not capture state mutated by a previous call.
	Setup func(vm *kvm.VM) error
}

// placement resolves the VM's vCPU pinning on topo: Placement when set,
// else VCPUs spread across Sockets. buildWorld pins the VM with it and the
// fingerprint covers it, so a checkpoint's shape is the pinning the world
// was built with, wherever the host scheduler has since moved the vCPUs.
func (vs *VMSpec) placement(topo hw.Topology) ([]hw.CPUID, error) {
	if vs.Placement != nil {
		return vs.Placement, nil
	}
	sockets := vs.Sockets
	if sockets == 0 {
		sockets = 1
	}
	return topo.SpreadAcross(vs.VCPUs, sockets)
}

// Scenario is one simulation run: a host configuration plus the fleet of
// VMs sharing it. It is the one world description: single-VM runners
// build theirs with Options.oneVM, paratick.Run translates its own
// scenario into a one-VM Scenario, and consolidation and overcommit
// studies declare multi-VM fleets.
type Scenario struct {
	Name string
	// Topology overrides the host CPU layout; the zero value keeps the
	// paper's 80-CPU machine.
	Topology hw.Topology
	HostHz   int // 0 → 250
	// Timeslice overrides the pCPU timeslice (0 → 6 ms default).
	Timeslice   sim.Time
	HaltPoll    sim.Time
	PLEWindow   sim.Time
	SchedPolicy sched.Kind
	// Duration runs for a fixed simulated time; when 0 the scenario ends
	// once every Workload-marked VM completes.
	Duration sim.Time
	// SnapshotProbe, when positive, checkpoints the run at this instant,
	// verifies the snapshot round-trips byte-identically, and continues on
	// the restored copy — so any restore bug surfaces as divergent results.
	// It is a differential-testing gate, not a performance feature.
	// In lane mode the probe instant is rounded up to the quantum grid, so
	// the probe never introduces a barrier an unprobed run would not have.
	SnapshotProbe sim.Time
	// Quantum, when positive, runs the scenario in lane mode: one event
	// lane per socket under the conservative quantum barrier. It is part of
	// the scenario's semantic identity (interleavings and RNG streams
	// change); every VM must then be contained on a single socket.
	Quantum sim.Time
	// Shards is how many goroutines execute the lanes (clamped to the lane
	// count; 0 or 1 = serial). Execution-only: results are byte-identical
	// for every value, and it is excluded from the structural fingerprint.
	Shards int
	// CrossIPI declares periodic cross-VM doorbell streams (the vhost-style
	// kick pattern), the only interaction that crosses lanes. Lane mode
	// only; order is part of the scenario's identity.
	CrossIPI []CrossIPISpec
	VMs      []VMSpec
}

// CrossIPISpec declares one periodic cross-VM interrupt stream: every
// Period, an IPI posted from the Src VM's lane is delivered to DstVCPU of
// the Dst VM after Latency. Latency must cover the conservative quantum
// horizon (≥ Quantum).
type CrossIPISpec struct {
	// Src and Dst index Scenario.VMs.
	Src, Dst int
	DstVCPU  int
	Period   sim.Time
	Latency  sim.Time
	// Phase is the first firing instant (0 → Period).
	Phase sim.Time
}

// ScenarioResult carries per-VM results in VMSpec order.
type ScenarioResult struct {
	Results []metrics.Result
	Events  uint64
}

// maxTickHz is the highest guest or host tick rate a scenario may ask for:
// Linux's largest CONFIG_HZ. A rate far above it means a tick every few
// nanoseconds, and a run that does not finish.
const maxTickHz = 1000

// Validate checks the scenario is runnable.
func (s Scenario) Validate() error {
	if len(s.VMs) == 0 {
		return fmt.Errorf("experiment %s: scenario needs at least one VM", s.Name)
	}
	if s.Duration == 0 {
		any := false
		for _, v := range s.VMs {
			any = any || v.Workload
		}
		if !any {
			return fmt.Errorf("experiment %s: no workload VM and no duration", s.Name)
		}
	}
	if s.HostHz < 0 || s.HostHz > maxTickHz {
		return fmt.Errorf("experiment %s: host tick rate must be between 0 (the default) and %d Hz, got %d", s.Name, maxTickHz, s.HostHz)
	}
	for _, v := range s.VMs {
		if v.VCPUs <= 0 && len(v.Placement) == 0 {
			return fmt.Errorf("experiment %s: VM %q needs vCPUs or a placement", s.Name, v.Name)
		}
		if v.GuestHz < 0 || v.GuestHz > maxTickHz {
			return fmt.Errorf("experiment %s: VM %q guest tick rate must be between 0 (the default) and %d Hz, got %d", s.Name, v.Name, maxTickHz, v.GuestHz)
		}
	}
	if s.Duration < 0 || s.Duration > maxSimTime {
		return fmt.Errorf("experiment %s: duration must be between 0 and %v, got %v", s.Name, maxSimTime, s.Duration)
	}
	if s.SnapshotProbe < 0 {
		return fmt.Errorf("experiment %s: snapshot probe must be non-negative, got %v", s.Name, s.SnapshotProbe)
	}
	if s.Quantum < 0 {
		return fmt.Errorf("experiment %s: quantum must be non-negative, got %v", s.Name, s.Quantum)
	}
	if s.Shards < 0 {
		return fmt.Errorf("experiment %s: shards must be non-negative, got %d", s.Name, s.Shards)
	}
	if s.Quantum == 0 {
		if s.Shards > 1 {
			return fmt.Errorf("experiment %s: %d shards require a positive quantum", s.Name, s.Shards)
		}
		if len(s.CrossIPI) > 0 {
			return fmt.Errorf("experiment %s: cross-VM IPI streams require lane mode (a positive quantum)", s.Name)
		}
	}
	for i, ci := range s.CrossIPI {
		if ci.Src < 0 || ci.Src >= len(s.VMs) || ci.Dst < 0 || ci.Dst >= len(s.VMs) {
			return fmt.Errorf("experiment %s: cross-IPI stream %d links VMs %d→%d, have %d VMs",
				s.Name, i, ci.Src, ci.Dst, len(s.VMs))
		}
	}
	return nil
}

// RunScenario executes the scenario and returns per-VM results.
func RunScenario(s Scenario, seed uint64) (*ScenarioResult, error) {
	out := &ScenarioResult{}
	if err := runScenarioInto(s, seed, nil, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// runScenarioInto is RunScenario with telemetry and an optional worker
// arena supplying the reused engine, writing per-VM results into
// caller-owned storage; the experiment runners pass their worker arena's
// scratch result so a steady-state sweep allocates nothing per run.
func runScenarioInto(s Scenario, seed uint64, m *metrics.Meter, a *arena, out *ScenarioResult) error {
	w, err := buildWorld(s, seed, a)
	if err != nil {
		return err
	}
	return w.runInto(m, out)
}

// world is one fully constructed scenario instance: the engine, host, and
// VM fleet, plus the bookkeeping runScenario needs. Splitting construction
// (buildWorld) from execution (runInto) is what makes checkpointing
// possible: thaw rebuilds an identical world from the spec and then
// overwrites its mutable state from the snapshot.
type world struct {
	scenario Scenario
	seed     uint64
	cfg      kvm.Config
	// se coordinates the run's engines: a legacy single-engine wrapper when
	// Quantum is 0 (byte-identical to the pre-shard code path), or one lane
	// per socket under the quantum barrier.
	se   *sim.ShardedEngine
	host *kvm.Host
	vms  []*kvm.VM
	// arm is the hook thaw applied after decoding (nil for a straight run
	// or a plain resume); the snapshot probe re-applies it to its copy.
	arm func(*world) error
}

// buildWorld constructs the scenario and starts every VM, leaving the
// engine one Run call away from executing. The construction order is
// load-bearing for reproducibility: each VM is created and set up in VMSpec
// order (kernel and device creation fork the engine's RNG), then all VMs
// start in the same order, exactly as the pre-scenario runners did.
// Checkpoint restore relies on the same property: rebuilding from an equal
// (Scenario, seed) yields an object graph of identical shape.
func buildWorld(s Scenario, seed uint64, a *arena) (*world, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := kvm.DefaultConfig()
	if s.Topology.Sockets > 0 {
		cfg.Topology = s.Topology
	}
	if s.HostHz > 0 {
		cfg.HostHz = s.HostHz
	}
	if s.Timeslice > 0 {
		cfg.Timeslice = s.Timeslice
	}
	cfg.HaltPoll = s.HaltPoll
	cfg.PLEWindow = s.PLEWindow
	cfg.SchedPolicy = s.SchedPolicy
	lanes, shards := 1, 1
	if s.Quantum > 0 {
		// One lane per socket; shards clamp to the lane count, so a
		// single-socket topology degenerates to serial lane mode.
		lanes = cfg.Topology.Sockets
		if s.Shards > 1 {
			shards = s.Shards
			if shards > lanes {
				shards = lanes
			}
		}
	}
	se, err := a.shardedFor(seed, lanes, shards, s.Quantum)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	host, err := a.hostArena().NewHostOn(se, cfg)
	if err != nil {
		return nil, err
	}
	w := &world{
		scenario: s,
		seed:     seed,
		cfg:      cfg,
		se:       se,
		host:     host,
		vms:      make([]*kvm.VM, 0, len(s.VMs)),
	}
	for _, vs := range s.VMs {
		placement, err := vs.placement(cfg.Topology)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
		gcfg := guest.DefaultConfig()
		gcfg.Mode = vs.Mode
		gcfg.PolicyOpts = vs.PolicyOpts
		gcfg.AdaptiveSpin = vs.AdaptiveSpin
		gcfg.TaskHint = vs.TaskHint
		if vs.GuestHz > 0 {
			gcfg.TickHz = vs.GuestHz
		}
		vm, err := host.NewVM(vs.Name, gcfg, placement)
		if err != nil {
			return nil, err
		}
		if vs.Mode == core.Paratick && vs.TopUp {
			vm.SetEntryHook(&core.ParatickHost{TopUp: true})
		}
		if vs.Setup != nil {
			if err := vs.Setup(vm); err != nil {
				return nil, fmt.Errorf("experiment %s setup %s: %w", s.Name, vs.Name, err)
			}
		}
		w.vms = append(w.vms, vm)
	}
	for i, ci := range s.CrossIPI {
		if err := host.AddIPIStream(w.vms[ci.Src], w.vms[ci.Dst], ci.DstVCPU, ci.Period, ci.Latency, ci.Phase); err != nil {
			return nil, fmt.Errorf("experiment %s: cross-IPI stream %d: %w", s.Name, i, err)
		}
	}
	if s.Duration == 0 {
		// One completion rule: stop once every workload VM has finished.
		// Serial runs check it as each workload VM completes. Lane mode
		// checks it at quantum barriers, where the coordinator can read
		// every lane's state race-free: a per-VM hook would run on several
		// shard goroutines, and a mid-quantum stop would depend on the
		// shard interleaving.
		stopWhenDone := func(sim.Time) {
			if w.workloadsDone() {
				se.Stop()
			}
		}
		if s.Quantum > 0 {
			se.SetBarrierHook(stopWhenDone)
		} else {
			for i, vs := range s.VMs {
				if vs.Workload {
					w.vms[i].OnWorkloadDone = stopWhenDone
				}
			}
		}
	}
	for _, vm := range w.vms {
		vm.Start()
	}
	return w, nil
}

// workloadsDone reports whether every workload VM has finished.
func (w *world) workloadsDone() bool {
	for i, vs := range w.scenario.VMs {
		if !vs.Workload {
			continue
		}
		if done, _ := w.vms[i].WorkloadDone(); !done {
			return false
		}
	}
	return true
}

// alignUp rounds t up to the next quantum-grid instant in lane mode (the
// identity in legacy mode, or when t is already on the grid). Probe and
// checkpoint instants are aligned so that pausing there adds no barrier an
// uninterrupted run would not also have — the byte-identity contract
// between probed/checkpointed runs and straight runs depends on it.
func (w *world) alignUp(t sim.Time) sim.Time {
	q := w.se.Quantum()
	if q <= 0 || t%q == 0 {
		return t
	}
	return (t/q + 1) * q
}

// deadline is the instant the run ends at.
func (w *world) deadline() sim.Time {
	if w.scenario.Duration > 0 {
		return w.scenario.Duration
	}
	return maxSimTime
}

// fingerprint encodes the world's structural identity: everything that
// shapes the object graph a snapshot must be restored into. Name, Duration,
// SnapshotProbe, and Setup closures are deliberately excluded — they do not
// change the graph's shape, and a checkpoint may legitimately be resumed
// under a different label, horizon, or probe.
func (w *world) fingerprint() []byte {
	var enc snap.Encoder
	enc.Section("scenario-shape")
	enc.I64(int64(w.cfg.Topology.Sockets))
	enc.I64(int64(w.cfg.Topology.CPUsPerSocket))
	enc.F64(w.cfg.Topology.CrossSocketTax)
	enc.I64(int64(w.cfg.HostHz))
	enc.I64(int64(w.cfg.Timeslice))
	enc.I64(int64(w.cfg.HaltPoll))
	enc.I64(int64(w.cfg.PLEWindow))
	enc.U8(uint8(w.cfg.SchedPolicy))
	enc.U32(uint32(len(w.scenario.VMs)))
	for _, vs := range w.scenario.VMs {
		enc.String(vs.Name)
		enc.U8(uint8(vs.Mode))
		enc.I64(int64(vs.GuestHz))
		enc.Bool(vs.PolicyOpts.DisarmOnIdleExit)
		// Two zero words where idle-transition cost overrides once sat,
		// which keeps committed checkpoints' fingerprints stable.
		enc.I64(0)
		enc.I64(0)
		enc.I64(int64(vs.AdaptiveSpin))
		enc.Bool(vs.TopUp)
		enc.Bool(vs.Workload)
		// buildWorld resolved the same placement from the same spec and
		// topology, so it cannot fail here.
		placement, _ := vs.placement(w.cfg.Topology)
		enc.U32(uint32(len(placement)))
		for _, c := range placement {
			enc.I64(int64(c))
		}
	}
	// Lane-mode identity: quantum and the cross-IPI stream shapes change
	// the object graph and the schedule, so they are part of the
	// fingerprint — but only when lane mode is on, which keeps every legacy
	// fingerprint (including those inside committed reference checkpoints)
	// byte-for-byte unchanged. The shard count is deliberately excluded:
	// it is an execution knob with no observable effect, and a checkpoint
	// taken at shards=4 must resume at shards=1 (and vice versa).
	if w.scenario.Quantum != 0 {
		enc.Section("scenario-lanes")
		enc.I64(int64(w.scenario.Quantum))
		enc.U32(uint32(len(w.scenario.CrossIPI)))
		for _, ci := range w.scenario.CrossIPI {
			enc.I64(int64(ci.Src))
			enc.I64(int64(ci.Dst))
			enc.I64(int64(ci.DstVCPU))
			enc.I64(int64(ci.Period))
			enc.I64(int64(ci.Latency))
			enc.I64(int64(ci.Phase))
		}
	}
	return append([]byte(nil), enc.Bytes()...)
}

// runInto executes the world to its deadline and harvests per-VM results
// into out, crossing the snapshot probe if one is set.
//
// The probe is the restore path's differential gate: freeze, thaw into a
// rebuilt world (re-applying the arm hook), check the copy re-freezes to
// the same bytes, and finish the run on the copy — so a missed field, a
// mis-bound closure, a mis-armed event or a lost arm knob diverges the
// results. The abandoned world needs no teardown: an arena-built host
// keeps its VMs, and its next reset stashes them into the VM arena, whose
// acquire-time reset sanitizes them.
func (w *world) runInto(m *metrics.Meter, out *ScenarioResult) error {
	deadline := w.deadline()
	start := w.se.Fired()
	if !w.se.Stopped() {
		if probe := w.alignUp(w.scenario.SnapshotProbe); probe > 0 && probe < deadline && w.se.Now() < probe {
			w.se.RunUntil(probe)
			if w.se.Stopped() {
				// The workload finished before the probe, so there is no
				// live state to freeze: the clock has run past events the
				// finished run left pending. Re-arm the stop so the final
				// RunUntil consumes it as an uninterrupted run would.
				w.se.Stop()
			} else {
				ck, err := w.freeze()
				if err != nil {
					return err
				}
				next, err := thaw(w.scenario, ck, w.arm, nil)
				if err != nil {
					return fmt.Errorf("experiment %s: snapshot probe: %w", w.scenario.Name, err)
				}
				again, err := next.freeze()
				if err != nil {
					return err
				}
				if !bytes.Equal(ck.payload, again.payload) {
					return fmt.Errorf("experiment %s: snapshot round-trip diverged at %v: %d bytes (digest %v) re-saved as %d bytes (digest %v)",
						w.scenario.Name, probe, len(ck.payload), snap.HashBytes(ck.payload), len(again.payload), snap.HashBytes(again.payload))
				}
				w = next
			}
		}
		w.se.RunUntil(deadline)
	}
	m.AddRun(w.se.Fired() - start)
	return w.finishInto(out)
}

// finishInto validates completion and assembles per-VM results into
// caller-owned storage: out's Results slice is truncated and refilled in
// place (growing its backing array only when the fleet outgrows it), so a
// caller harvesting results every run — a runParallel worker, a Session —
// pays no per-run allocation. No teardown happens here: an arena-built
// world's VMs (with their timer wheels and task pools attached) stay with
// the host, which recycles them through the VM arena on its next reset; a
// fresh-built world is simply garbage.
func (w *world) finishInto(out *ScenarioResult) error {
	if w.scenario.Duration == 0 {
		for i, vs := range w.scenario.VMs {
			if !vs.Workload {
				continue
			}
			if done, _ := w.vms[i].WorkloadDone(); !done {
				return fmt.Errorf("experiment %s: workload did not finish within %v (live tasks %d)",
					w.scenario.Name, w.deadline(), w.vms[i].Kernel().LiveTasks())
			}
		}
	}
	out.Events = w.se.Fired()
	if cap(out.Results) < len(w.vms) {
		out.Results = make([]metrics.Result, len(w.vms))
	}
	out.Results = out.Results[:len(w.vms)]
	for i, vm := range w.vms {
		vm.ResultInto(&out.Results[i], w.scenario.VMs[i].Name)
		out.Results[i].Events = out.Events
	}
	return nil
}
