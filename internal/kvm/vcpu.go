package kvm

import (
	"fmt"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/trace"
)

// VCPUState is a vCPU's host-side scheduling state.
type VCPUState int

const (
	// VCPUStopped has not been started.
	VCPUStopped VCPUState = iota
	// VCPURunnable is queued on its pCPU waiting for a turn.
	VCPURunnable
	// VCPURunning is the pCPU's current vCPU (in guest or in an exit).
	VCPURunning
	// VCPUHalted executed HLT and waits for an interrupt.
	VCPUHalted
)

// String names the state.
func (s VCPUState) String() string {
	names := [...]string{"stopped", "runnable", "running", "halted"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("vcpu-state(%d)", int(s))
}

// VCPU is the host-side representation of a guest CPU — the model's
// kvm_vcpu. The lastVirtualTick field is the last_tick the paper adds in
// §5.1.
type VCPU struct {
	//snap:skip back-pointer wiring, bound at VM construction
	vm *VM
	//snap:skip identity is implicit in the VM's save order
	//reset:keep identity fixed at construction; VM reuse keys on the vCPU count
	id int
	//snap:skip guest-CPU wiring, re-linked to the kernel's vCPU at construction
	//reset:keep wiring to the recycled kernel's vCPU, which stays attached across reuse
	gcpu *guest.VCPU
	pcpu *PCPU

	state   VCPUState
	pending []pendingIRQ
	// pendingSpare is the drained pending buffer awaiting reuse: the
	// injection path double-buffers so draining never reallocates while
	// delivery handlers pend fresh interrupts.
	//snap:skip pool: drained double-buffer, capacity only
	pendingSpare []pendingIRQ

	// node is the scheduling layer's per-entity state; its Key is this
	// vCPU's host-wide creation ordinal.
	node sched.Node

	// guestTimer realizes the guest's TSC-deadline timer: while the vCPU
	// runs, its expiry models a VMX preemption-timer exit; while the vCPU
	// is descheduled or halted it is the host-armed hrtimer.
	guestTimer *hw.DeadlineTimer
	// topUpTimer implements the §4.1 frequency-mismatch extension.
	topUpTimer *hw.DeadlineTimer

	lastVirtualTick sim.Time
	sliceStart      sim.Time
}

// pendingIRQ is one queued interrupt plus the time it was pended, so the
// injection path can histogram pend-to-delivery latency per vector class.
type pendingIRQ struct {
	vec   hw.Vector
	since sim.Time
}

// reset brings a vCPU — a fresh shell from VM.newVCPU or a pooled one — to
// its just-constructed state on a (possibly different) pCPU with a fresh
// scheduler ordinal. The deadline timers are reset in place onto the VM's
// current lane engine — their expiry handlers were pre-bound at
// construction and receive the dispatching engine as an argument, so
// rebinding lanes costs nothing.
//
//paratick:noalloc
func (v *VCPU) reset(pcpu *PCPU, key uint64) {
	v.pcpu = pcpu
	v.state = VCPUStopped
	v.pending = v.pending[:0]
	v.pendingSpare = v.pendingSpare[:0]
	v.node = sched.Node{Key: key}
	v.guestTimer.Reset(v.vm.engine)
	v.topUpTimer.Reset(v.vm.engine)
	v.lastVirtualTick = 0
	v.sliceStart = 0
}

// ID returns the vCPU index within its VM.
func (v *VCPU) ID() int { return v.id }

// VM returns the owning VM.
func (v *VCPU) VM() *VM { return v.vm }

// State returns the scheduling state.
func (v *VCPU) State() VCPUState { return v.state }

// PCPU returns the physical CPU this vCPU currently calls home: its pinned
// placement under sched.FIFO, or the last pCPU that dispatched it when the
// policy migrates vCPUs (sched.Fair work stealing).
func (v *VCPU) PCPU() *PCPU { return v.pcpu }

// SchedNode exposes the scheduler-owned state (sched.Entity).
func (v *VCPU) SchedNode() *sched.Node { return &v.node }

// PendingIRQs returns a copy of the pending vector list.
func (v *VCPU) PendingIRQs() []hw.Vector {
	out := make([]hw.Vector, len(v.pending))
	for i, p := range v.pending {
		out[i] = p.vec
	}
	return out
}

// queue adds vec to the pending interrupts unless it is already pending:
// hardware coalesces, like the LAPIC IRR.
func (v *VCPU) queue(vec hw.Vector) {
	for _, p := range v.pending {
		if p.vec == vec {
			return
		}
	}
	v.pending = append(v.pending, pendingIRQ{vec: vec, since: v.Now()})
}

// pendIRQ queues vec for injection and wakes or interrupts the vCPU as its
// state demands. A runnable or stopped vCPU takes it at its next entry.
func (v *VCPU) pendIRQ(vec hw.Vector) {
	v.queue(vec)
	switch v.state {
	case VCPUHalted:
		v.pcpu.wake(v)
	case VCPURunning:
		v.pcpu.exitIfInGuest(v, metrics.ExitExternalIRQ, v.pcpu.cost().ExitExternalIRQ)
	}
}

// hasPending reports whether any interrupt is queued.
func (v *VCPU) hasPending() bool { return len(v.pending) > 0 }

// drainPending empties and returns the pending interrupts, swapping in the
// spare buffer so delivery handlers can pend new interrupts while the
// caller iterates the drained ones. The caller hands the drained slice back
// via recyclePending once done.
//
//paratick:noalloc
func (v *VCPU) drainPending() []pendingIRQ {
	out := v.pending
	v.pending = v.pendingSpare
	v.pendingSpare = nil
	return out
}

// recyclePending returns a slice obtained from drainPending to the spare
// buffer for the next drain.
//
//paratick:noalloc
func (v *VCPU) recyclePending(drained []pendingIRQ) {
	v.pendingSpare = drained[:0]
}

// onGuestTimer fires when the guest's armed deadline passes.
func (v *VCPU) onGuestTimer(now sim.Time) {
	p := v.pcpu
	if v.state == VCPURunning {
		// Expiry hits a running vCPU: KVM's (cheaper) preemption-timer
		// exit (§3).
		v.queue(hw.LocalTimerVector)
		p.exitIfInGuest(v, metrics.ExitPreemptTimer, p.cost().ExitPreemptTimer)
		return
	}
	// Host hrtimer on behalf of a descheduled/halted vCPU: queue the
	// interrupt (wakes a halted vCPU). If another vCPU currently occupies
	// this pCPU, the physical timer interrupt suspends it — the §3.1
	// overcommit cost: "the running vCPU is suspended whenever a tick
	// interrupt arrives for a descheduled vCPU".
	victim := p.current
	v.pendIRQ(hw.LocalTimerVector)
	if victim != nil && victim != v {
		p.exitIfInGuest(victim, metrics.ExitTimerSteal, p.cost().ExitExternalIRQ)
	}
}

// onTopUpTimer fires the §4.1 top-up deadline: a bare preemption-timer exit
// that forces a VM entry, so the paratick hook observes the elapsed guest
// tick period and injects the due virtual tick. Unlike the guest's own
// deadline timer, no local-timer vector is queued — this timer is
// host-internal. Halted or descheduled vCPUs need no top-up tick, and one
// already in an exit re-enters shortly anyway.
func (v *VCPU) onTopUpTimer(now sim.Time) {
	v.pcpu.exitIfInGuest(v, metrics.ExitPreemptTimer, v.pcpu.cost().ExitPreemptTimer)
}

// --- core.HostVCPU implementation (the Fig. 2 hook surface) ---------------

// Now returns current simulated time on the VM's lane (mid-quantum, only
// the vCPU's own lane clock is coherent to read).
func (v *VCPU) Now() sim.Time { return v.vm.engine.Now() }

// GuestTickPeriod returns the declared guest tick period.
func (v *VCPU) GuestTickPeriod() sim.Time { return v.vm.GuestTickPeriod() }

// HostTickPeriod returns the host scheduler-tick period.
func (v *VCPU) HostTickPeriod() sim.Time { return v.vm.host.cfg.HostTickPeriod() }

// HasPendingLocalTimer reports a queued local-timer interrupt.
func (v *VCPU) HasPendingLocalTimer() bool {
	for _, p := range v.pending {
		if p.vec == hw.LocalTimerVector {
			return true
		}
	}
	return false
}

// InjectVirtualTick queues the vector-235 virtual tick.
func (v *VCPU) InjectVirtualTick() {
	v.vm.counters.VirtualTicks++
	v.pcpu.traceEvent(trace.KindVirtualTick, v, "vector-235")
	v.queue(hw.ParatickVector)
}

// LastVirtualTick returns the §5.1 last_tick field.
func (v *VCPU) LastVirtualTick() sim.Time { return v.lastVirtualTick }

// SetLastVirtualTick records a tick injection.
func (v *VCPU) SetLastVirtualTick(t sim.Time) { v.lastVirtualTick = t }

// ArmTopUpTimer programs the §4.1 top-up deadline.
func (v *VCPU) ArmTopUpTimer(deadline sim.Time) {
	if v.topUpTimer.Deadline() <= deadline {
		return
	}
	v.topUpTimer.Arm(deadline)
}

var _ core.HostVCPU = (*VCPU)(nil)
