// Package kvm models the hypervisor: a KVM-like run loop executing guest
// segment streams on physical CPUs, with VM exits priced and counted by
// reason, interrupt injection on VM entry, HLT handling, wakeup IPIs, a
// host scheduler tick per pCPU, optional halt polling, and pCPU time
// sharing for overcommitted placements. The paratick host side (Fig. 2 of
// the paper) plugs in as a core.EntryHook invoked on every VM entry.
package kvm

import (
	"fmt"

	"paratick/internal/hw"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/trace"
)

// Config describes the host.
type Config struct {
	// Topology is the physical CPU layout.
	Topology hw.Topology
	// Cost prices every modeled interaction.
	Cost hw.CostModel
	// HostHz is the host scheduler-tick frequency (250 in the paper's
	// kernels).
	HostHz int
	// Timeslice bounds a vCPU's turn on a shared pCPU (overcommit).
	Timeslice sim.Time
	// HaltPoll is KVM's halt-polling window; the paper disables it (§6),
	// so 0 is the default. When positive, a halting vCPU busy-waits up to
	// this long for an interrupt before truly descheduling.
	HaltPoll sim.Time
	// PLEWindow enables pause-loop exiting: a guest spinning longer than
	// this window takes a PLE exit per window. The paper disables PLE
	// (§6: "only beneficial in overcommitted environments"), so 0 is the
	// default.
	PLEWindow sim.Time
	// SchedPolicy selects the host vCPU scheduler. The zero value is
	// sched.FIFO, the legacy policy, so existing configs are unchanged.
	SchedPolicy sched.Kind
}

// DefaultConfig returns the paper's host setup: the 80-CPU NUMA box,
// 250 Hz host tick, 6 ms timeslices, halt polling disabled.
func DefaultConfig() Config {
	return Config{
		Topology:  hw.PaperTopology(),
		Cost:      hw.DefaultCostModel(),
		HostHz:    250,
		Timeslice: 6 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.HostHz <= 0 {
		return fmt.Errorf("kvm: HostHz must be positive, got %d", c.HostHz)
	}
	if c.HostTickPeriod() <= 0 {
		return fmt.Errorf("kvm: HostHz %d exceeds 1 GHz, the nanosecond clock's resolution", c.HostHz)
	}
	if c.Timeslice <= 0 {
		return fmt.Errorf("kvm: Timeslice must be positive, got %v", c.Timeslice)
	}
	if c.HaltPoll < 0 {
		return fmt.Errorf("kvm: HaltPoll must be non-negative, got %v", c.HaltPoll)
	}
	if c.PLEWindow < 0 {
		return fmt.Errorf("kvm: PLEWindow must be non-negative, got %v", c.PLEWindow)
	}
	if err := c.SchedPolicy.Validate(); err != nil {
		return err
	}
	return nil
}

// HostTickPeriod returns the host tick period.
func (c Config) HostTickPeriod() sim.Time { return sim.PeriodFromHz(c.HostHz) }

// Host is the hypervisor instance.
type Host struct {
	//snap:skip engine coordinator wiring; ShardedEngine.Snap moves its state first
	se *sim.ShardedEngine
	//snap:skip immutable host configuration from the scenario
	cfg Config
	//snap:skip immutable cost model from the scenario
	cost  hw.CostModel
	pcpus []*PCPU
	vms   []*VM
	sched sched.Scheduler

	nextIOVector hw.Vector
	// nextSchedKey hands out host-wide vCPU ordinals (sched.Node.Key), the
	// stable tie-break the scheduling layer's determinism contract requires.
	nextSchedKey uint64

	// vmArena, when non-nil, recycles whole VMs across this host's runs:
	// Host.reset stashes the finished run's VMs there and NewVM re-acquires
	// them by (vCPU count, guest Hz). Only HostArena-managed hosts carry
	// one; a nil arena always builds VMs fresh.
	//snap:skip pool of stashed VMs between runs, never live state
	vmArena *VMArena

	// tracer, when set, records exits/injections (perf-style; see
	// internal/trace). nil disables tracing. With multiple lanes each lane
	// records into its own buffer (laneTracers) so shard goroutines never
	// share one ring; Tracer() merges them canonically.
	tracer      *trace.Buffer
	laneTracers []*trace.Buffer

	// inflight tracks remote-IPI deliveries per destination lane: messages
	// drained from the barrier mailboxes whose interrupt has not fired yet.
	// A checkpoint serializes them so restore can re-arm the delivery.
	inflight [][]*remoteIRQ
	// freeIRQ recycles fired delivery records per destination lane for
	// newRemoteIRQ.
	//snap:skip pool: blank records with their pre-bound fire handlers, never live state
	freeIRQ [][]*remoteIRQ
	// streams are the periodic cross-VM IPI generators, in creation order.
	streams []*ipiStream
	// streamPool holds the previous run's streams after a reset, blank but
	// for their pre-bound handlers, indexed by creation order.
	//snap:skip pool: blank streams with their pre-bound handlers, never live state
	streamPool []*ipiStream
	// deliver is deliverRemoteIRQ bound once at construction, so reset
	// installs it on the coordinator without allocating a method value.
	//snap:skip pre-bound barrier-drain hook, reinstalled by reset
	deliver func(sim.Message)
}

// NewHost creates a host on a single engine — the legacy serial mode,
// byte-identical to the pre-shard code path.
func NewHost(engine *sim.Engine, cfg Config) (*Host, error) {
	if engine == nil {
		return nil, fmt.Errorf("kvm: NewHost requires an engine")
	}
	return NewHostOn(sim.WrapEngine(engine), cfg)
}

// NewHostOn creates a host on a sharded coordinator. In lane mode (a
// positive quantum) the coordinator must hold one lane per socket: every
// pCPU, VM, and device lives on its socket's lane engine, which is what
// lets shards execute sockets concurrently without sharing state.
func NewHostOn(se *sim.ShardedEngine, cfg Config) (*Host, error) {
	if se == nil {
		return nil, fmt.Errorf("kvm: NewHostOn requires an engine coordinator")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if se.Lanes() != 1 && se.Lanes() != cfg.Topology.Sockets {
		return nil, fmt.Errorf("kvm: coordinator has %d lanes, topology has %d sockets (want one lane per socket, or one lane total)",
			se.Lanes(), cfg.Topology.Sockets)
	}
	// The shell holds the machine shape the host pool keys on: one pCPU per
	// physical CPU, with its host-tick timer in place and its pre-bound
	// completion handler, plus the per-lane in-flight lists. The pCPUs come
	// from one slab, so a host costs a fixed number of allocations plus the
	// two pre-bound handlers of each pCPU. reset writes everything else.
	slab := make([]PCPU, cfg.Topology.NumCPUs())
	h := &Host{se: se, pcpus: make([]*PCPU, len(slab))}
	if se.Quantum() > 0 {
		h.inflight = make([][]*remoteIRQ, se.Lanes())
		h.freeIRQ = make([][]*remoteIRQ, se.Lanes())
		h.deliver = h.deliverRemoteIRQ
	}
	for i := range slab {
		p := &slab[i]
		lane := h.laneOf(cfg.Topology.SocketOf(hw.CPUID(i)))
		p.host, p.id, p.lane, p.engine = h, hw.CPUID(i), lane, se.Engine(lane)
		p.doneFn = p.complete
		p.tick.Init(p.engine, "ptimer:host-tick", cfg.HostTickPeriod(), func(e *sim.Engine) { p.onHostTick(p.tick.Tick(e)) })
		h.pcpus[i] = p
	}
	if err := h.reset(cfg); err != nil {
		return nil, err
	}
	return h, nil
}

// laneOf maps a socket to its lane: identity with one lane per socket, 0
// when a single lane carries the whole machine.
func (h *Host) laneOf(socket int) int {
	if h.se.Lanes() == 1 {
		return 0
	}
	return socket
}

// Engine returns lane 0's simulation engine — the engine, in the serial
// single-lane mode.
func (h *Host) Engine() *sim.Engine { return h.se.Root() }

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// PCPUs returns the physical CPUs.
func (h *Host) PCPUs() []*PCPU { return h.pcpus }

// Scheduler returns the host's vCPU scheduler.
func (h *Host) Scheduler() sched.Scheduler { return h.sched }

// VMs returns the created VMs.
func (h *Host) VMs() []*VM { return h.vms }

// Now returns current simulated time (lane 0's clock; all lanes agree at
// quantum barriers, which is the only context cross-lane code runs in).
func (h *Host) Now() sim.Time { return h.se.Now() }

// SetHaltPoll adjusts the halt-polling window at runtime. Each HLT exit
// reads the current value, so the change applies from the next halt on —
// the experiment layer varies it across forked snapshot arms.
func (h *Host) SetHaltPoll(d sim.Time) error {
	if d < 0 {
		return fmt.Errorf("kvm: HaltPoll must be non-negative, got %v", d)
	}
	h.cfg.HaltPoll = d
	return nil
}

// SetPLEWindow adjusts the pause-loop-exiting window at runtime; each spin
// consults the current value.
func (h *Host) SetPLEWindow(d sim.Time) error {
	if d < 0 {
		return fmt.Errorf("kvm: PLEWindow must be non-negative, got %v", d)
	}
	h.cfg.PLEWindow = d
	return nil
}

// SetTracer attaches a trace buffer recording exits and injections. With
// multiple lanes the buffer only sets the capacity: recording goes into
// one private buffer per lane (so shard goroutines never share a ring)
// and Tracer() returns their canonical merge.
func (h *Host) SetTracer(t *trace.Buffer) {
	h.tracer = t
	h.laneTracers = nil
	if t == nil || h.se.Lanes() == 1 {
		return
	}
	h.laneTracers = make([]*trace.Buffer, h.se.Lanes())
	for l := range h.laneTracers {
		h.laneTracers[l] = trace.NewBuffer(t.Cap())
	}
}

// Tracer returns the attached trace buffer (nil when tracing is off). With
// multiple lanes it merges the per-lane buffers in the canonical
// (timestamp, lane, record order) order — a pure function of the lane
// schedules, independent of the shard count.
func (h *Host) Tracer() *trace.Buffer {
	if h.laneTracers != nil {
		return trace.Merge(h.laneTracers, h.tracer.Cap())
	}
	return h.tracer
}

// tracerFor returns the buffer lane's components record into (nil when
// tracing is off).
func (h *Host) tracerFor(lane int) *trace.Buffer {
	if h.laneTracers != nil {
		return h.laneTracers[lane]
	}
	return h.tracer
}
