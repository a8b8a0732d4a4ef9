// Package core implements the paper's primary contribution: scheduler-tick
// management policies for virtualized guests.
//
// Three policies are provided:
//
//   - Periodic: the classic fixed-rate scheduler tick (§2, §3.1).
//   - DynticksIdle: the tickless kernel of Fig. 1 — the tick is deferred or
//     disabled on idle entry and re-armed on idle exit (§2, §3.2).
//   - Paratick: virtual scheduler ticks (§4, §5) — the guest never programs
//     its own tick; the host injects virtual ticks (vector 235) on VM entry,
//     and the guest programs a wakeup timer on idle entry only when an RCU
//     event or soft timer requires it, deliberately keeping that timer armed
//     across idle exits (Fig. 3).
//
// The guest side of each policy is expressed against the GuestVCPU hook
// interface (driven by internal/guest); the host side of paratick (Fig. 2)
// is the ParatickHost entry hook (driven by internal/kvm).
package core

import (
	"fmt"

	"paratick/internal/sim"
)

// Mode identifies a tick-management policy.
type Mode int

const (
	// Periodic is the classic fixed-rate scheduler tick.
	Periodic Mode = iota
	// DynticksIdle is the standard tickless kernel ("dynticks idle" in §2),
	// the Linux default and the paper's baseline.
	DynticksIdle
	// Paratick is the paper's virtual-scheduler-tick mechanism.
	Paratick
)

// String returns the mode's short name, as used in result tables.
func (m Mode) String() string {
	switch m {
	case Periodic:
		return "periodic"
	case DynticksIdle:
		return "dynticks"
	case Paratick:
		return "paratick"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode converts a mode name ("periodic", "dynticks", "paratick") into a
// Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "periodic":
		return Periodic, nil
	case "dynticks", "tickless":
		return DynticksIdle, nil
	case "paratick":
		return Paratick, nil
	}
	return 0, fmt.Errorf("core: unknown tick mode %q (want periodic, dynticks or paratick)", s)
}

// GuestVCPU is the view a tick policy has of the guest kernel's per-vCPU
// state. It is implemented by internal/guest. SetTimer is the one timer
// operation: an intercepted TSC_DEADLINE MSR write (a VM exit) in the
// hypervisor.
type GuestVCPU interface {
	// Now returns current simulated time.
	Now() sim.Time
	// TickPeriod returns the guest's scheduler-tick period.
	TickPeriod() sim.Time
	// SetTimer writes the per-vCPU deadline timer (one MSR write):
	// deadline arms it, sim.Forever disarms it.
	SetTimer(deadline sim.Time)
	// TimerDeadline returns the programmed deadline, or sim.Forever when
	// the timer is disarmed.
	TimerDeadline() sim.Time
	// RunTickWork performs one scheduler tick's worth of kernel work:
	// accounting, timer-wheel advance, preemption.
	RunTickWork()
	// AddKernelWork charges the guest's calibrated kernel CPU time for a
	// labelled piece of policy book-keeping, such as the dynticks
	// idle-entry evaluation.
	AddKernelWork(label string)
	// NextSoftEvent returns the expiry of the earliest pending soft timer or
	// RCU callback, or sim.Forever when none is pending (Fig. 1b).
	NextSoftEvent() sim.Time
	// TickRequired reports whether a system component (RCU, irq work, ...)
	// explicitly needs the tick to keep running (Fig. 1b).
	TickRequired() bool
	// Idle reports whether the vCPU is in the idle loop.
	Idle() bool
	// Hypercall issues a paravirtual call to the host (used by paratick to
	// declare the guest tick frequency at boot, §4.1).
	Hypercall(kind HypercallKind, arg int64)
}

// HypercallKind enumerates guest→host paravirtual calls.
type HypercallKind int

const (
	// HypercallDeclareTickHz declares the guest tick frequency (§4.1).
	HypercallDeclareTickHz HypercallKind = iota
)

// String names the hypercall.
func (k HypercallKind) String() string {
	if k == HypercallDeclareTickHz {
		return "declare-tick-hz"
	}
	return fmt.Sprintf("hypercall(%d)", int(k))
}

// TickPolicy is the guest-side tick-management strategy for one vCPU.
// One instance is created per vCPU; implementations carry per-vCPU state.
type TickPolicy interface {
	Mode() Mode
	// OnBoot initializes tick management when the vCPU starts.
	OnBoot(v GuestVCPU)
	// OnTick handles a physical local-timer interrupt (the vCPU's own
	// deadline timer expired).
	OnTick(v GuestVCPU)
	// OnVirtualTick handles a host-injected vector-235 virtual tick.
	OnVirtualTick(v GuestVCPU)
	// OnIdleEnter runs when the vCPU is about to enter the idle loop.
	OnIdleEnter(v GuestVCPU)
	// OnIdleExit runs when the vCPU leaves the idle loop.
	OnIdleExit(v GuestVCPU)
}

// Options tune policy behaviour for ablation studies.
type Options struct {
	// DisarmOnIdleExit disables the paper's §5.2.5 heuristic: when true,
	// paratick cancels the idle wakeup timer on idle exit (and consequently
	// must reprogram it on the next idle entry — 2 VM exits instead of ≤1).
	DisarmOnIdleExit bool
}

// NewPolicy returns a fresh per-vCPU policy instance for the mode: a zero
// instance that ResetPolicy initializes, the same path a pooled one takes.
func NewPolicy(mode Mode, opts Options) TickPolicy {
	var p [1]TickPolicy
	FillPolicies(mode, opts, p[:])
	return p[0]
}

// FillPolicies fills out with fresh policy instances for the mode, carved
// from one slab: a VM's vCPUs get theirs for one allocation, not one each.
func FillPolicies(mode Mode, opts Options, out []TickPolicy) {
	switch mode {
	case Periodic:
		carve(out, make([]periodicPolicy, len(out)))
	case DynticksIdle:
		carve(out, make([]dynticksPolicy, len(out)))
	case Paratick:
		carve(out, make([]paratickPolicy, len(out)))
	default:
		panic(fmt.Sprintf("core: unknown mode %d", int(mode)))
	}
	for _, p := range out {
		ResetPolicy(p, opts)
	}
}

// carve points each policy of out at its own slot of slab.
func carve[T any, P interface {
	*T
	TickPolicy
}](out []TickPolicy, slab []T) {
	for i := range slab {
		out[i] = P(&slab[i])
	}
}
