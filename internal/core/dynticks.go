package core

import "paratick/internal/sim"

// dynticksPolicy implements the standard tickless ("dynticks idle") kernel
// of Fig. 1. While tasks run, it behaves exactly like the periodic tick.
// On idle entry the tick is kept, deferred to the next RCU/soft-timer
// event, or disabled entirely (Fig. 1b); on idle exit a deferred/disabled
// tick is re-armed at the regular interval (Fig. 1c). Each defer/disable
// and each re-arm is a TSC_DEADLINE MSR write and therefore a VM exit —
// the overhead this paper attacks (§3.2).
type dynticksPolicy struct {
	// stopped records that the tick was deferred or disabled on idle entry
	// and must be restored on idle exit (the "tick deferred or disabled?"
	// checks in Figs. 1a and 1c).
	stopped bool
}

func (p *dynticksPolicy) Mode() Mode { return DynticksIdle }

func (p *dynticksPolicy) OnBoot(v GuestVCPU) {
	v.SetTimer(v.Now() + v.TickPeriod())
}

// OnTick is Fig. 1a: perform tick work, then re-arm — unless the tick has
// been deferred or disabled by the time the handler runs (a deferred wakeup
// timer firing during idle), in which case reprogramming is skipped.
func (p *dynticksPolicy) OnTick(v GuestVCPU) {
	v.RunTickWork()
	if p.stopped {
		return
	}
	v.SetTimer(v.Now() + v.TickPeriod())
}

// OnVirtualTick rejects virtual ticks: this guest did not negotiate
// paratick.
func (p *dynticksPolicy) OnVirtualTick(v GuestVCPU) {}

// OnIdleEnter is Fig. 1b.
func (p *dynticksPolicy) OnIdleEnter(v GuestVCPU) {
	v.AddKernelWork("idle-enter-eval")
	if v.TickRequired() {
		// A system component needs the tick: enter idle with it running.
		// When the tick is not actually armed (a deferred expiry already
		// fired during this idle period), restore it — sleeping without a
		// timer would strand the pending work. Either way the tick now
		// counts as running (stopped = false): the handler must keep
		// re-arming it every period for as long as the vCPU stays idle,
		// and idle exit has nothing to restore.
		if v.TimerDeadline() == sim.Forever {
			v.SetTimer(v.Now() + v.TickPeriod())
		}
		p.stopped = false
		return
	}
	next := v.NextSoftEvent()
	if next <= v.Now()+v.TickPeriod() {
		// Next event falls within the next tick period: keep the tick —
		// re-arming it at the event when a deferred expiry left it
		// disarmed. As above, a kept tick is a running tick: marking it
		// stopped here would make the next OnTick skip its re-arm and
		// strand RCU/soft-timer work on a vCPU that stays idle.
		if v.TimerDeadline() == sim.Forever {
			v.SetTimer(next)
		}
		p.stopped = false
		return
	}
	// Defer the tick to the event's expiry, or disable it entirely when no
	// event is pending (next == sim.Forever).
	v.SetTimer(next)
	p.stopped = true
}

// OnIdleExit is Fig. 1c: if the tick was deferred or disabled at idle
// entry, re-arm it at the regular interval.
func (p *dynticksPolicy) OnIdleExit(v GuestVCPU) {
	v.AddKernelWork("idle-exit")
	if !p.stopped {
		return
	}
	p.stopped = false
	v.SetTimer(v.Now() + v.TickPeriod())
}
