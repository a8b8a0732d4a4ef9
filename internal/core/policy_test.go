package core

import (
	"testing"

	"paratick/internal/sim"
)

// mockVCPU is a scripted GuestVCPU that records every policy action.
type mockVCPU struct {
	now        sim.Time
	period     sim.Time
	armed      bool
	deadline   sim.Time
	idle       bool
	tickReq    bool
	nextSoft   sim.Time
	armCalls   []sim.Time
	stopCalls  int
	tickWork   int
	kernelWork []string
	hypercalls []HypercallKind
}

func newMockVCPU() *mockVCPU {
	return &mockVCPU{period: 4 * sim.Millisecond, nextSoft: sim.Forever, deadline: sim.Forever}
}

func (m *mockVCPU) Now() sim.Time        { return m.now }
func (m *mockVCPU) TickPeriod() sim.Time { return m.period }
func (m *mockVCPU) TimerDeadline() sim.Time {
	if !m.armed {
		return sim.Forever
	}
	return m.deadline
}

// SetTimer records the MSR write as an arm or, for sim.Forever, a stop.
func (m *mockVCPU) SetTimer(deadline sim.Time) {
	m.armed = deadline != sim.Forever
	m.deadline = deadline
	if m.armed {
		m.armCalls = append(m.armCalls, deadline)
	} else {
		m.stopCalls++
	}
}
func (m *mockVCPU) RunTickWork() { m.tickWork++ }
func (m *mockVCPU) AddKernelWork(label string) {
	m.kernelWork = append(m.kernelWork, label)
}
func (m *mockVCPU) NextSoftEvent() sim.Time { return m.nextSoft }
func (m *mockVCPU) TickRequired() bool      { return m.tickReq }
func (m *mockVCPU) Idle() bool              { return m.idle }
func (m *mockVCPU) Hypercall(kind HypercallKind, arg int64) {
	m.hypercalls = append(m.hypercalls, kind)
}

func (m *mockVCPU) msrWrites() int { return len(m.armCalls) + m.stopCalls }

func TestModeStringsAndParse(t *testing.T) {
	for _, c := range []struct {
		m Mode
		s string
	}{{Periodic, "periodic"}, {DynticksIdle, "dynticks"}, {Paratick, "paratick"}} {
		if c.m.String() != c.s {
			t.Errorf("%d.String() = %q", int(c.m), c.m.String())
		}
		got, err := ParseMode(c.s)
		if err != nil || got != c.m {
			t.Errorf("ParseMode(%q) = %v, %v", c.s, got, err)
		}
	}
	if m, err := ParseMode("tickless"); err != nil || m != DynticksIdle {
		t.Error("'tickless' should parse as dynticks")
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode parsed")
	}
	if Mode(42).String() != "mode(42)" {
		t.Error("unknown mode string")
	}
	if HypercallDeclareTickHz.String() != "declare-tick-hz" {
		t.Error("hypercall name")
	}
	if HypercallKind(9).String() != "hypercall(9)" {
		t.Error("unknown hypercall name")
	}
}

func TestNewPolicyModes(t *testing.T) {
	for _, m := range []Mode{Periodic, DynticksIdle, Paratick} {
		p := NewPolicy(m, Options{})
		if p.Mode() != m {
			t.Errorf("NewPolicy(%v).Mode() = %v", m, p.Mode())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewPolicy(unknown) did not panic")
		}
	}()
	NewPolicy(Mode(99), Options{})
}

// --- Periodic ---

func TestPeriodicBootArmsTimer(t *testing.T) {
	v := newMockVCPU()
	p := NewPolicy(Periodic, Options{})
	p.OnBoot(v)
	if !v.armed || v.deadline != v.period {
		t.Fatalf("boot: armed=%v deadline=%v", v.armed, v.deadline)
	}
}

func TestPeriodicTickRearms(t *testing.T) {
	v := newMockVCPU()
	p := NewPolicy(Periodic, Options{})
	p.OnBoot(v)
	v.now = v.period
	p.OnTick(v)
	if v.tickWork != 1 {
		t.Fatal("tick work not performed")
	}
	if v.deadline != 2*v.period {
		t.Fatalf("rearm deadline = %v, want %v", v.deadline, 2*v.period)
	}
}

func TestPeriodicIdleTransitionsTouchNoTimer(t *testing.T) {
	// §3.1: periodic guests keep ticking across idle; no MSR writes on
	// idle entry/exit.
	v := newMockVCPU()
	p := NewPolicy(Periodic, Options{})
	p.OnBoot(v)
	before := v.msrWrites()
	v.idle = true
	p.OnIdleEnter(v)
	v.idle = false
	p.OnIdleExit(v)
	if v.msrWrites() != before {
		t.Fatal("periodic policy touched the timer on idle transition")
	}
}

func TestPeriodicRejectsVirtualTicks(t *testing.T) {
	// §5.2.1: virtual ticks arriving outside paratick mode are rejected.
	v := newMockVCPU()
	p := NewPolicy(Periodic, Options{})
	p.OnVirtualTick(v)
	if v.tickWork != 0 {
		t.Fatal("periodic policy processed a virtual tick")
	}
}

// --- Dynticks (Fig. 1) ---

func TestDynticksTickRearms(t *testing.T) {
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	v.now = v.period
	p.OnTick(v)
	if v.tickWork != 1 || v.deadline != 2*v.period {
		t.Fatalf("tick: work=%d deadline=%v", v.tickWork, v.deadline)
	}
}

func TestDynticksIdleEnterKeepsTickWhenRequired(t *testing.T) {
	// Fig. 1b: "tick explicitly needed?" → yes → enter idle, tick stays.
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	v.tickReq = true
	writes := v.msrWrites()
	p.OnIdleEnter(v)
	if v.msrWrites() != writes {
		t.Fatal("tick reprogrammed despite being explicitly required")
	}
	// And idle exit must not re-arm either (tick never stopped).
	p.OnIdleExit(v)
	if v.msrWrites() != writes {
		t.Fatal("idle exit re-armed a tick that was never stopped")
	}
}

func TestDynticksIdleEnterKeepsTickForNearEvent(t *testing.T) {
	// Fig. 1b: next event within the next tick period → keep tick.
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	v.nextSoft = v.period / 2
	writes := v.msrWrites()
	p.OnIdleEnter(v)
	if v.msrWrites() != writes {
		t.Fatal("tick reprogrammed for an event within the tick period")
	}
}

func TestDynticksIdleEnterDefersToSoftEvent(t *testing.T) {
	// Fig. 1b: next event beyond the tick period → defer tick to it.
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	v.nextSoft = 10 * v.period
	p.OnIdleEnter(v)
	if !v.armed || v.deadline != 10*v.period {
		t.Fatalf("tick not deferred: armed=%v deadline=%v", v.armed, v.deadline)
	}
}

func TestDynticksIdleEnterDisablesWithNoEvents(t *testing.T) {
	// Fig. 1b: no pending events → disable the tick entirely.
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	p.OnIdleEnter(v)
	if v.armed {
		t.Fatal("tick not disabled on idle entry with no events")
	}
	if v.stopCalls != 1 {
		t.Fatalf("stop calls = %d", v.stopCalls)
	}
}

func TestDynticksIdleExitRearms(t *testing.T) {
	// Fig. 1c: tick was disabled at idle entry → re-arm at regular interval.
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	p.OnIdleEnter(v) // disables
	v.now = 3 * v.period
	p.OnIdleExit(v)
	if !v.armed || v.deadline != v.now+v.period {
		t.Fatalf("idle exit: armed=%v deadline=%v", v.armed, v.deadline)
	}
}

func TestDynticksDeferredTickDoesNotRearm(t *testing.T) {
	// Fig. 1a: handler invoked while tick deferred/disabled → skip
	// reprogramming.
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	v.nextSoft = 10 * v.period
	p.OnIdleEnter(v) // deferred to 10*period
	v.now = 10 * v.period
	v.idle = true
	armsBefore := len(v.armCalls)
	p.OnTick(v)
	if v.tickWork != 1 {
		t.Fatal("deferred tick did not run tick work")
	}
	if len(v.armCalls) != armsBefore {
		t.Fatal("deferred tick handler re-armed the timer")
	}
}

func TestDynticksFullIdleCycleCostsTwoMSRWrites(t *testing.T) {
	// §3.2: each idle entry/exit pair costs 2 VM exits (one MSR write each
	// way). This is the quantity paratick eliminates.
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnBoot(v)
	base := v.msrWrites()
	p.OnIdleEnter(v)
	p.OnIdleExit(v)
	if got := v.msrWrites() - base; got != 2 {
		t.Fatalf("idle cycle MSR writes = %d, want 2", got)
	}
}

func TestDynticksRejectsVirtualTicks(t *testing.T) {
	v := newMockVCPU()
	p := NewPolicy(DynticksIdle, Options{})
	p.OnVirtualTick(v)
	if v.tickWork != 0 {
		t.Fatal("dynticks processed a virtual tick")
	}
}

// --- Paratick (Fig. 3) ---

func TestParatickBootDeclaresFrequencyAndArmsNothing(t *testing.T) {
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	if len(v.hypercalls) != 1 || v.hypercalls[0] != HypercallDeclareTickHz {
		t.Fatalf("hypercalls = %v", v.hypercalls)
	}
	if v.armed {
		t.Fatal("paratick armed a tick timer at boot")
	}
	if len(v.armCalls) != 0 {
		t.Fatal("paratick issued arm MSR writes at boot")
	}
}

func TestParatickBootDisablesLeftoverBootTick(t *testing.T) {
	// §5.2.1: the periodic boot tick is disabled when switching to
	// paratick mode.
	v := newMockVCPU()
	v.armed = true
	v.deadline = v.period
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	if v.armed {
		t.Fatal("boot-time periodic tick not disabled")
	}
}

func TestParatickVirtualTickRunsWorkArmsNothing(t *testing.T) {
	// Fig. 3a: same work as the standard handler, but never re-arms.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	writes := v.msrWrites()
	p.OnVirtualTick(v)
	if v.tickWork != 1 {
		t.Fatal("virtual tick did not run tick work")
	}
	if v.msrWrites() != writes {
		t.Fatal("virtual tick handler touched timer hardware")
	}
}

func TestParatickPhysicalTimerWhileIdleActsAsTick(t *testing.T) {
	// Fig. 3b: still idle when the wakeup timer fires → treat as virtual
	// tick.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	v.idle = true
	p.OnTick(v)
	if v.tickWork != 1 {
		t.Fatal("idle wakeup timer not treated as a tick")
	}
}

func TestParatickPhysicalTimerWhileBusyIsIgnored(t *testing.T) {
	// Fig. 3b: vCPU operating normally → virtual ticks are flowing; the
	// stale timer does no tick work and arms nothing.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	v.idle = false
	writes := v.msrWrites()
	p.OnTick(v)
	if v.tickWork != 0 {
		t.Fatal("stale timer performed tick work on a busy vCPU")
	}
	if v.msrWrites() != writes {
		t.Fatal("stale timer handler touched timer hardware")
	}
}

func TestParatickIdleEnterNoEventsNoTimer(t *testing.T) {
	// Fig. 3c: nothing pending → sleep with no timer at all. Zero MSR
	// writes for the whole idle cycle.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	base := v.msrWrites()
	p.OnIdleEnter(v)
	p.OnIdleExit(v)
	if got := v.msrWrites() - base; got != 0 {
		t.Fatalf("paratick idle cycle MSR writes = %d, want 0", got)
	}
}

func TestParatickIdleEnterProgramsWakeupForSoftEvent(t *testing.T) {
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	v.nextSoft = 3 * v.period
	p.OnIdleEnter(v)
	if !v.armed || v.deadline != 3*v.period {
		t.Fatalf("wakeup timer: armed=%v deadline=%v", v.armed, v.deadline)
	}
}

func TestParatickIdleEnterTickRequiredUsesTickInterval(t *testing.T) {
	// Fig. 3c via §5.2.4: if the recycled evaluation says the tick must be
	// retained, program a timer at the regular tick interval.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	v.now = 10 * sim.Millisecond
	v.tickReq = true
	p.OnIdleEnter(v)
	if !v.armed || v.deadline != v.now+v.period {
		t.Fatalf("tick-required wakeup: armed=%v deadline=%v", v.armed, v.deadline)
	}
}

func TestParatickIdleEnterReusesEarlierArmedTimer(t *testing.T) {
	// §5.2.4: the timer may still be armed from a previous idle entry; only
	// reprogram when the new deadline is sooner.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	v.nextSoft = 2 * v.period
	p.OnIdleEnter(v) // arms at 2*period
	arms := len(v.armCalls)

	p.OnIdleExit(v) // heuristic: stays armed
	v.nextSoft = 3 * v.period
	p.OnIdleEnter(v) // existing timer (2*period) is sooner: no reprogram
	if len(v.armCalls) != arms {
		t.Fatal("reprogrammed despite an earlier armed timer")
	}

	p.OnIdleExit(v)
	v.nextSoft = v.period // sooner than armed 2*period → must reprogram
	p.OnIdleEnter(v)
	if len(v.armCalls) != arms+1 || v.deadline != v.period {
		t.Fatalf("did not reprogram for sooner deadline: calls=%d deadline=%v",
			len(v.armCalls), v.deadline)
	}
}

func TestParatickIdleExitHeuristicKeepsTimer(t *testing.T) {
	// §5.2.5 / Fig. 3d: no action on idle exit; the timer stays armed.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{})
	p.OnBoot(v)
	v.nextSoft = 2 * v.period
	p.OnIdleEnter(v)
	p.OnIdleExit(v)
	if !v.armed {
		t.Fatal("idle exit disarmed the wakeup timer (heuristic violated)")
	}
	if v.stopCalls != 0 {
		t.Fatal("idle exit issued a stop MSR write")
	}
}

func TestParatickDisarmOnIdleExitAblation(t *testing.T) {
	// Ablation option: invert the §5.2.5 heuristic.
	v := newMockVCPU()
	p := NewPolicy(Paratick, Options{DisarmOnIdleExit: true})
	p.OnBoot(v)
	v.nextSoft = 2 * v.period
	p.OnIdleEnter(v)
	p.OnIdleExit(v)
	if v.armed {
		t.Fatal("ablation variant kept the timer armed")
	}
	if v.stopCalls != 1 {
		t.Fatalf("stop calls = %d, want 1", v.stopCalls)
	}
	// The next idle entry must now reprogram: 2 MSR writes per cycle, the
	// cost the heuristic avoids.
	arms := len(v.armCalls)
	p.OnIdleEnter(v)
	if len(v.armCalls) != arms+1 {
		t.Fatal("ablation variant did not reprogram on next idle entry")
	}
}

// Comparative property: over a random sequence of idle cycles with soft
// events, paratick never issues more MSR writes than dynticks — the §4.2
// guarantee at the policy level.
func TestParatickNeverMoreMSRWritesThanDynticks(t *testing.T) {
	rng := sim.NewRand(12345)
	for trial := 0; trial < 50; trial++ {
		dv, pv := newMockVCPU(), newMockVCPU()
		dp := NewPolicy(DynticksIdle, Options{})
		pp := NewPolicy(Paratick, Options{})
		dp.OnBoot(dv)
		pp.OnBoot(pv)
		pBase := pv.msrWrites() // boot arm for dynticks only
		dBase := dv.msrWrites()
		now := sim.Time(0)
		for i := 0; i < 200; i++ {
			now += rng.Between(sim.Microsecond, 10*sim.Millisecond)
			dv.now, pv.now = now, now
			soft := sim.Forever
			if rng.Bool(0.4) {
				soft = now + rng.Between(sim.Microsecond, 50*sim.Millisecond)
			}
			dv.nextSoft, pv.nextSoft = soft, soft
			req := rng.Bool(0.1)
			dv.tickReq, pv.tickReq = req, req
			dp.OnIdleEnter(dv)
			pp.OnIdleEnter(pv)
			now += rng.Between(sim.Microsecond, 5*sim.Millisecond)
			dv.now, pv.now = now, now
			dp.OnIdleExit(dv)
			pp.OnIdleExit(pv)
		}
		if pv.msrWrites()-pBase > dv.msrWrites()-dBase {
			t.Fatalf("trial %d: paratick %d MSR writes > dynticks %d",
				trial, pv.msrWrites()-pBase, dv.msrWrites()-dBase)
		}
	}
}
