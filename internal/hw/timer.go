package hw

import (
	"fmt"
	"strings"

	"paratick/internal/sim"
	"paratick/internal/snap"
)

// timerName returns the name a timer label carries after its prefix.
func timerName(label, prefix string) string {
	name, ok := strings.CutPrefix(label, prefix)
	if !ok {
		panic(fmt.Sprintf("hw: timer label %q does not start with %q", label, prefix))
	}
	return name
}

// DeadlineTimer models a one-shot hardware timer armed by writing an
// absolute deadline — the programming model of both the x86 TSC-deadline
// LAPIC timer and the VMX preemption timer (§3 of the paper). Re-arming an
// armed timer replaces the previous deadline, exactly like overwriting the
// TSC_DEADLINE MSR; writing a deadline in the past fires immediately
// (scheduled at "now"); Cancel disarms it.
type DeadlineTimer struct {
	name string
	//snap:skip event label fixed at construction; name is its suffix
	label string
	//snap:skip engine wiring; Reset rebinds it when the owner moves lanes
	engine *sim.Engine
	//snap:skip pre-bound handler, recreated at construction
	handler  sim.Handler // pre-bound expiry handler; arming must not allocate
	ev       sim.Event
	armCount uint64
	expireCt uint64
}

// NewDeadlineTimer creates a disarmed timer that invokes fire on expiry.
// label is the timer's event label, "timer:" followed by its name; a
// constant label lets construction build no string.
func NewDeadlineTimer(engine *sim.Engine, label string, fire func(now sim.Time)) *DeadlineTimer {
	if fire == nil {
		panic("hw: DeadlineTimer requires a fire callback")
	}
	t := new(DeadlineTimer)
	t.Init(engine, label, func(e *sim.Engine) { fire(t.Expire(e)) })
	return t
}

// Init builds a disarmed timer in place: a field of its owner, or a slot of
// a slab. handler is the pre-bound expiry handler; it must begin with
// t.Expire(e), which takes the expiry's time. An owner that binds handler
// as a closure over itself, calling its own expiry method, pays one
// allocation for the timer: the closure.
func (t *DeadlineTimer) Init(engine *sim.Engine, label string, handler sim.Handler) {
	if engine == nil || handler == nil {
		panic("hw: DeadlineTimer requires an engine and a handler")
	}
	*t = DeadlineTimer{name: timerName(label, "timer:"), label: label, engine: engine, handler: handler}
}

// Expire records the expiry the timer's handler is running for and
// returns its time: the timer is disarmed and its expirations counted.
//
//paratick:noalloc
func (t *DeadlineTimer) Expire(e *sim.Engine) sim.Time {
	t.ev = sim.Event{}
	t.expireCt++
	return e.Now()
}

// Arm programs the timer to expire at deadline, replacing any previous
// deadline. A deadline at or before the current time fires at the current
// time (hardware behaviour for a stale TSC_DEADLINE write).
func (t *DeadlineTimer) Arm(deadline sim.Time) {
	t.Cancel()
	if deadline == sim.Forever {
		return
	}
	if deadline < t.engine.Now() {
		deadline = t.engine.Now()
	}
	t.armCount++
	t.ev = t.engine.At(deadline, t.label, t.handler)
}

// ArmAfter programs the timer to expire delay from now.
func (t *DeadlineTimer) ArmAfter(delay sim.Time) {
	if delay == sim.Forever {
		t.Cancel()
		return
	}
	if delay < 0 {
		delay = 0
	}
	t.Arm(t.engine.Now() + delay)
}

// Cancel disarms the timer; it is a no-op when the timer is not armed.
func (t *DeadlineTimer) Cancel() {
	t.engine.Cancel(t.ev)
	t.ev = sim.Event{}
}

// Reset returns the timer to its just-constructed state on the given
// engine: disarmed, zero counters, no event handle. For pooled reuse after
// the owning engine was itself Reset (or the component moved lanes) — the
// stale handle is dropped, not canceled, because the engine generation that
// issued it is gone. The pre-bound expiry handler survives: it receives the
// dispatching engine as an argument, so rebinding costs nothing.
//
//paratick:noalloc
func (t *DeadlineTimer) Reset(engine *sim.Engine) {
	t.engine = engine
	t.ev = sim.Event{}
	t.armCount = 0
	t.expireCt = 0
}

// Armed reports whether the timer is currently programmed.
func (t *DeadlineTimer) Armed() bool { return t.ev.Pending() }

// Deadline returns the programmed expiry time, or sim.Forever when the
// timer is disarmed.
func (t *DeadlineTimer) Deadline() sim.Time {
	if !t.ev.Pending() {
		return sim.Forever
	}
	return t.ev.When()
}

// ArmCount returns how many times the timer has been (re)programmed.
func (t *DeadlineTimer) ArmCount() uint64 { return t.armCount }

// Expirations returns how many times the timer has fired.
func (t *DeadlineTimer) Expirations() uint64 { return t.expireCt }

// Snap moves the timer's counters and its pending expiry, which decoding
// re-arms at the original (when, seq) coordinates. The engine must already
// carry the restored clock and sequence counter.
func (t *DeadlineTimer) Snap(s *snap.Stream) {
	s.Section("dtimer:" + t.name)
	s.U64(&t.armCount)
	s.U64(&t.expireCt)
	sim.SnapEvent(s, t.engine, &t.ev, t.label, t.handler)
}

// PeriodicTimer models a free-running periodic interrupt source — the host
// LAPIC programmed in periodic mode for the host scheduler tick. The phase
// offset staggers ticks across physical CPUs the way real LAPIC calibration
// does, preventing the model from firing every host tick in lockstep.
type PeriodicTimer struct {
	name string
	//snap:skip event label fixed at construction; name is its suffix
	label string
	//snap:skip engine wiring; Reset rebinds it when the owner moves lanes
	engine *sim.Engine
	period sim.Time
	//snap:skip pre-bound handler, recreated at construction
	handler sim.Handler // pre-bound tick handler; rescheduling must not allocate
	ev      sim.Event
	ticks   uint64
}

// NewPeriodicTimer creates a stopped periodic timer. label is the timer's
// event label, "ptimer:" followed by its name; a constant label lets
// construction build no string.
func NewPeriodicTimer(engine *sim.Engine, label string, period sim.Time, fire func(now sim.Time)) *PeriodicTimer {
	if fire == nil {
		panic("hw: PeriodicTimer requires a fire callback")
	}
	t := new(PeriodicTimer)
	t.Init(engine, label, period, func(e *sim.Engine) { fire(t.Tick(e)) })
	return t
}

// Init builds a stopped periodic timer in place. handler is the pre-bound
// tick handler; it must begin with t.Tick(e), which takes the tick's time.
// Like DeadlineTimer.Init, an owner binding handler over itself pays one
// allocation for the timer.
func (t *PeriodicTimer) Init(engine *sim.Engine, label string, period sim.Time, handler sim.Handler) {
	if engine == nil || handler == nil {
		panic("hw: PeriodicTimer requires an engine and a handler")
	}
	name := timerName(label, "ptimer:")
	if period <= 0 {
		panic(fmt.Sprintf("hw: PeriodicTimer %q period must be positive, got %v", name, period))
	}
	*t = PeriodicTimer{name: name, label: label, engine: engine, period: period, handler: handler}
}

// Tick records the tick the timer's handler is running for, schedules the
// next one a period later, and returns the tick's time.
//
//paratick:noalloc
func (t *PeriodicTimer) Tick(e *sim.Engine) sim.Time {
	t.ticks++
	t.schedule(e.Now() + t.period)
	return e.Now()
}

// Start begins ticking; the first tick fires phase nanoseconds from now and
// subsequent ticks follow every period. Starting a started timer panics.
func (t *PeriodicTimer) Start(phase sim.Time) {
	if t.ev.Pending() {
		panic(fmt.Sprintf("hw: PeriodicTimer %q started twice", t.name))
	}
	if phase < 0 {
		phase = 0
	}
	t.schedule(t.engine.Now() + phase)
}

//paratick:noalloc
func (t *PeriodicTimer) schedule(when sim.Time) {
	t.ev = t.engine.At(when, t.label, t.handler)
}

// Stop halts the timer.
func (t *PeriodicTimer) Stop() {
	t.engine.Cancel(t.ev)
	t.ev = sim.Event{}
}

// Reset returns the timer to its just-constructed state: stopped, zero
// ticks, no event handle. For pooled reuse after the owning engine was
// itself Reset — the stale handle is dropped, not canceled, because the
// engine generation that issued it is gone.
func (t *PeriodicTimer) Reset() {
	t.ev = sim.Event{}
	t.ticks = 0
}

// Running reports whether the timer is ticking.
func (t *PeriodicTimer) Running() bool { return t.ev.Pending() }

// Period returns the tick period.
func (t *PeriodicTimer) Period() sim.Time { return t.period }

// Ticks returns the number of ticks fired so far.
func (t *PeriodicTimer) Ticks() uint64 { return t.ticks }

// Snap moves the tick count and the next tick, which decoding re-arms at
// its original coordinates. The period is construction-time configuration,
// not restorable state: it is encoded so that a snapshot taken at another
// rate is rejected.
func (t *PeriodicTimer) Snap(s *snap.Stream) {
	s.Section("ptimer:" + t.name)
	period := t.period
	snap.Int(s, &period)
	if period != t.period {
		s.Failf("hw: snapshot period %v for timer %q does not match configured %v", period, t.name, t.period)
	}
	s.U64(&t.ticks)
	sim.SnapEvent(s, t.engine, &t.ev, t.label, t.handler)
}
