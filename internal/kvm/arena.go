package kvm

import (
	"paratick/internal/hw"
	"paratick/internal/sched"
	"paratick/internal/sim"
)

// HostArena pools Host construction across the runs of one experiment
// worker. Building a host takes a fixed number of slabs — the pCPUs with
// their host-tick timers in place, the scheduler's per-CPU queues — plus
// two pre-bound handler closures per pCPU (its completion handler and its
// tick timer's). All of that state is reusable — the closures capture only
// the PCPU itself, which survives — so consecutive runs on the same
// coordinator and machine shape reset the cached host in place instead of
// rebuilding it.
//
// Reuse never changes behaviour: a reset host is indistinguishable from a
// fresh one (the contract TestHostArenaReuseMatchesFresh pins, and
// TestHostArenaLaneReuseMatchesFresh in lane mode), so run output stays
// byte-identical whether or not a pool is in play. A nil *HostArena is
// valid and always builds fresh hosts.
type HostArena struct {
	host *Host
	vms  VMArena
}

// VMArena pools whole VMs across a host's runs: the guest kernel with its
// task, segment, sync-object and device pools; the host-side vCPUs with
// their pre-bound deadline-timer handler closures and pending-IRQ double
// buffers; and the per-vCPU timer wheels, which stay attached to their
// kernels. A fresh VM builds all of these from slabs, one per kind (see
// VM.buildVCPUs and guest.Kernel.AddVCPUs), so a pool miss costs a fixed
// number of allocations plus one handler per deadline timer. A pooled VM's
// AttachDevice resets the device its previous run attached at the same
// index, keeping the device's request pool and its pre-bound interrupt
// hook. (The host keeps its own lane-mode IPI streams:
// Host.reset blanks them for AddIPIStream to rebind.)
// Host.reset stashes a finished run's VMs here, next to whatever earlier
// worlds left unclaimed, and NewVM re-acquires them keyed on (vCPU count,
// guest tick Hz) — the construction-shape fields; the workload shape adapts
// through the kernel's internal pools. The pool grows only within one batch
// of runs: the experiment layer calls HostArena.DropUnclaimedVMs when a
// batch returns, so between batches the arena holds one world's VMs, those
// still attached to its host. A nil *VMArena is valid and never pools.
//
// Like host pooling, VM reuse is execution-only: NewVM runs VM.reset on
// fresh shells and recycled VMs alike (the digest audits in arena_test.go
// pin fresh == recycled byte for byte), so reports, traces, and
// checkpoints cannot observe it.
type VMArena struct {
	free []*VM
}

// take removes and returns a pooled VM matching the construction shape, or
// nil. Matching is LIFO so the hottest cache-resident VM is reused first.
func (a *VMArena) take(vcpus, tickHz int) *VM {
	if a == nil {
		return nil
	}
	for i := len(a.free) - 1; i >= 0; i-- {
		vm := a.free[i]
		if len(vm.vcpus) == vcpus && vm.kernel.Config().TickHz == tickHz {
			a.free = append(a.free[:i], a.free[i+1:]...)
			return vm
		}
	}
	return nil
}

// stash parks a finished world's VMs for reuse next to those earlier
// worlds left unclaimed, so worlds of different shapes that alternate
// within one batch of runs (Table 1's 1-VM and 4-VM worlds) each find
// theirs. No sanitization happens here — VM.reset does all of it at
// re-acquire time, which also covers VMs abandoned mid-run (the
// snapshot-probe path).
func (a *VMArena) stash(vms []*VM) {
	if a == nil {
		return
	}
	a.free = append(a.free, vms...)
}

// drop empties the pool.
func (a *VMArena) drop() {
	clear(a.free)
	a.free = a.free[:0]
}

// DropUnclaimedVMs empties the VM pool at the end of a batch of runs. The
// VMs of the last world stay with the host, which stashes them on its next
// reset, so the arena then holds that one world's VMs. A nil arena is a
// no-op.
func (a *HostArena) DropUnclaimedVMs() {
	if a != nil {
		a.vms.drop()
	}
}

// NewHostOn returns a host for the coordinator, reusing the pooled one
// when it was built on the same coordinator with the same machine shape
// (topology and host-tick rate — the fields that size the object graph).
// Everything else in cfg (cost model, timeslice, halt-poll, PLE window,
// scheduler policy) is applied on reuse.
func (a *HostArena) NewHostOn(se *sim.ShardedEngine, cfg Config) (*Host, error) {
	if a == nil {
		return NewHostOn(se, cfg)
	}
	if h := a.host; h != nil && h.se == se &&
		h.cfg.Topology == cfg.Topology && h.cfg.HostHz == cfg.HostHz {
		if err := h.reset(cfg); err != nil {
			return nil, err
		}
		return h, nil
	}
	// The pooled VMs reference the old host's pCPUs and lane engines.
	a.vms.drop()
	h, err := NewHostOn(se, cfg)
	if err == nil {
		h.vmArena = &a.vms
		a.host = h
	}
	return h, err
}

// reset brings the host to its just-constructed state for cfg; NewHostOn
// builds a shell and calls it. The caller guarantees the engines underneath
// were already Reset, so stale event handles are dropped, not canceled.
func (h *Host) reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	h.cfg = cfg
	h.cost = cfg.Cost
	h.vmArena.stash(h.vms)
	clear(h.vms)
	h.vms = h.vms[:0]
	h.nextIOVector = hw.IODeviceBase
	h.nextSchedKey = 0
	h.tracer = nil
	h.laneTracers = nil
	if h.sched != nil && h.sched.Name() == cfg.SchedPolicy.String() {
		h.sched.Reset(cfg.Timeslice)
	} else {
		s, err := sched.New(cfg.SchedPolicy, cfg.Topology, cfg.Timeslice)
		if err != nil {
			return err
		}
		h.sched = s
	}
	// Stagger host ticks across pCPUs deterministically, like LAPIC
	// calibration skew on real machines. The offset starts away from 0 so
	// host ticks do not land exactly on guest tick deadlines (which are
	// armed at whole tick periods from boot). Starting them in pCPU order
	// fixes their (when, seq) coordinates on the lane engines.
	n := len(h.pcpus)
	period := cfg.HostTickPeriod()
	for i, p := range h.pcpus {
		p.reset()
		p.tick.Start(period * sim.Time(i+1) / sim.Time(n+1))
	}
	if h.se.Quantum() > 0 {
		for l := range h.inflight {
			for i, r := range h.inflight[l] {
				h.releaseRemoteIRQ(l, r)
				h.inflight[l][i] = nil
			}
			h.inflight[l] = h.inflight[l][:0]
		}
		h.recycleStreams()
		h.se.SetDeliver(h.deliver)
	}
	return nil
}

// reset clears the pCPU's in-flight execution state. The pre-bound
// handler and the tick timer object are construction identity and are
// kept, but the tick must be restarted by the caller.
func (p *PCPU) reset() {
	p.current = nil
	p.phase = phaseNone
	p.done = sim.Event{}
	p.since = 0
	p.tick.Reset()
}
