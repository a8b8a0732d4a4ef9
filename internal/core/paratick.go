package core

import "paratick/internal/sim"

// paratickPolicy implements the guest side of virtual scheduler ticks
// (Fig. 3, §5.2). The guest never programs its own scheduler tick; virtual
// ticks (vector 235) are injected by the host on VM entry. The only timer
// the guest programs is an idle wakeup timer, set on idle entry when an RCU
// event or soft timer needs servicing while the vCPU would otherwise sleep
// — and, following the paper's §5.2.5 heuristic, that timer is deliberately
// NOT disarmed on idle exit: disabling it would force a reprogram on the
// next idle entry, i.e. 2 VM exits instead of at most 1.
type paratickPolicy struct {
	opts Options
}

func (p *paratickPolicy) Mode() Mode { return Paratick }

// OnBoot is §5.2.1: install the virtual-tick vector (implicit here) and
// declare the guest tick frequency to the host through a hypercall (§4.1).
// The periodic boot tick is disabled as the switch to paratick mode is
// made: no timer is armed.
func (p *paratickPolicy) OnBoot(v GuestVCPU) {
	v.Hypercall(HypercallDeclareTickHz, int64(sim.Second/v.TickPeriod()))
	if v.TimerDeadline() != sim.Forever {
		v.SetTimer(sim.Forever)
	}
}

// OnVirtualTick is Fig. 3a: the handler performs the same functions as the
// standard tick handler except that it never (re)arms a physical timer.
func (p *paratickPolicy) OnVirtualTick(v GuestVCPU) {
	v.RunTickWork()
}

// OnTick is Fig. 3b: the idle wakeup timer fired. If the vCPU is still
// idle, the interrupt is likely crucial (a soft timer or RCU event is due)
// and is treated as a virtual tick. If the vCPU is running normally,
// virtual ticks are already being injected, so no tick work is needed and
// the handler simply returns.
func (p *paratickPolicy) OnTick(v GuestVCPU) {
	if v.Idle() {
		v.RunTickWork()
		return
	}
	// Spurious wakeup of a busy vCPU: negligible handler cost only.
	v.AddKernelWork("paratick-stale-timer")
}

// OnIdleEnter is Fig. 3c, recycling the tickless idle-entry evaluation with
// the status quo inverted: by default no timer is programmed, and the code
// decides whether one *must* be set so the vCPU is woken for the next RCU
// event or soft interrupt (§5.2.4).
func (p *paratickPolicy) OnIdleEnter(v GuestVCPU) {
	v.AddKernelWork("idle-enter-eval")
	var deadline sim.Time
	if v.TickRequired() {
		// A component needs tick-interval service: wake at the regular
		// tick interval.
		deadline = v.Now() + v.TickPeriod()
	} else {
		deadline = v.NextSoftEvent()
	}
	// §5.2.4: only (re)program when the new expiry is sooner than the
	// programmed one — the timer may still be armed from a previous idle
	// entry. A disarmed timer reads sim.Forever, so any pending event
	// arms it, and with nothing pending (deadline == sim.Forever) the
	// vCPU sleeps until an external interrupt.
	if v.TimerDeadline() <= deadline {
		return
	}
	v.SetTimer(deadline)
}

// OnIdleExit is Fig. 3d: no action. The wakeup timer, if armed, stays armed
// (§5.2.5) — the single stale expiry it may cause is far cheaper than the
// reprogram-on-every-idle-entry it avoids. The DisarmOnIdleExit option
// inverts this for the ablation study.
func (p *paratickPolicy) OnIdleExit(v GuestVCPU) {
	if p.opts.DisarmOnIdleExit && v.TimerDeadline() != sim.Forever {
		v.SetTimer(sim.Forever)
	}
}
