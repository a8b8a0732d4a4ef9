package hw

import (
	"sort"
	"testing"
	"testing/quick"

	"paratick/internal/sim"
)

func TestDeadlineTimerFires(t *testing.T) {
	e := sim.NewEngine(1)
	var fired []sim.Time
	dt := NewDeadlineTimer(e, "timer:t", func(now sim.Time) { fired = append(fired, now) })
	dt.Arm(100)
	if !dt.Armed() || dt.Deadline() != 100 {
		t.Fatalf("armed=%v deadline=%v", dt.Armed(), dt.Deadline())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired = %v", fired)
	}
	if dt.Armed() {
		t.Fatal("timer still armed after expiry")
	}
	if dt.Deadline() != sim.Forever {
		t.Fatal("expired timer should report Forever")
	}
	if dt.ArmCount() != 1 || dt.Expirations() != 1 {
		t.Fatalf("counts: arm=%d exp=%d", dt.ArmCount(), dt.Expirations())
	}
}

func TestDeadlineTimerRearmReplaces(t *testing.T) {
	e := sim.NewEngine(1)
	var fired []sim.Time
	dt := NewDeadlineTimer(e, "timer:t", func(now sim.Time) { fired = append(fired, now) })
	dt.Arm(100)
	dt.Arm(200) // overwrite, like rewriting TSC_DEADLINE
	e.Run()
	if len(fired) != 1 || fired[0] != 200 {
		t.Fatalf("fired = %v, want single firing at 200", fired)
	}
	if dt.ArmCount() != 2 {
		t.Fatalf("arm count = %d", dt.ArmCount())
	}
}

func TestDeadlineTimerCancel(t *testing.T) {
	e := sim.NewEngine(1)
	fired := 0
	dt := NewDeadlineTimer(e, "timer:t", func(sim.Time) { fired++ })
	dt.Arm(100)
	dt.Cancel()
	dt.Cancel() // idempotent
	e.Run()
	if fired != 0 {
		t.Fatal("canceled timer fired")
	}
}

func TestDeadlineTimerPastDeadlineFiresNow(t *testing.T) {
	e := sim.NewEngine(1)
	var fired []sim.Time
	dt := NewDeadlineTimer(e, "timer:t", func(now sim.Time) { fired = append(fired, now) })
	e.At(500, "arm", func(*sim.Engine) { dt.Arm(100) })
	e.Run()
	if len(fired) != 1 || fired[0] != 500 {
		t.Fatalf("stale deadline should fire immediately, fired = %v", fired)
	}
}

func TestDeadlineTimerArmForeverDisarms(t *testing.T) {
	e := sim.NewEngine(1)
	fired := 0
	dt := NewDeadlineTimer(e, "timer:t", func(sim.Time) { fired++ })
	dt.Arm(100)
	dt.Arm(sim.Forever)
	if dt.Armed() {
		t.Fatal("Arm(Forever) should disarm")
	}
	e.Run()
	if fired != 0 {
		t.Fatal("disarmed timer fired")
	}
}

func TestDeadlineTimerArmAfter(t *testing.T) {
	e := sim.NewEngine(1)
	var fired []sim.Time
	dt := NewDeadlineTimer(e, "timer:t", func(now sim.Time) { fired = append(fired, now) })
	e.At(50, "arm", func(*sim.Engine) { dt.ArmAfter(25) })
	e.Run()
	if len(fired) != 1 || fired[0] != 75 {
		t.Fatalf("fired = %v, want [75]", fired)
	}
	dt.ArmAfter(sim.Forever)
	if dt.Armed() {
		t.Fatal("ArmAfter(Forever) should disarm")
	}
}

func TestDeadlineTimerRearmFromCallback(t *testing.T) {
	e := sim.NewEngine(1)
	var fired []sim.Time
	var dt *DeadlineTimer
	dt = NewDeadlineTimer(e, "timer:t", func(now sim.Time) {
		fired = append(fired, now)
		if len(fired) < 3 {
			dt.Arm(now + 10)
		}
	})
	dt.Arm(10)
	e.Run()
	want := []sim.Time{10, 20, 30}
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestNewDeadlineTimerPanics(t *testing.T) {
	e := sim.NewEngine(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil engine did not panic")
			}
		}()
		NewDeadlineTimer(nil, "timer:t", func(sim.Time) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil callback did not panic")
			}
		}()
		NewDeadlineTimer(e, "timer:t", nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a label without the timer: prefix did not panic")
			}
		}()
		NewDeadlineTimer(e, "t", func(sim.Time) {})
	}()
}

// TestTimerConstructionBuildsNoLabel pins that a timer built from a
// constant label allocates only itself and its pre-bound handler: the
// label is the caller's string, and the name is a slice of it.
func TestTimerConstructionBuildsNoLabel(t *testing.T) {
	e := sim.NewEngine(1)
	fire := func(sim.Time) {}
	var dt *DeadlineTimer
	if allocs := testing.AllocsPerRun(50, func() { dt = NewDeadlineTimer(e, "timer:guest-timer", fire) }); allocs != 2 {
		t.Errorf("NewDeadlineTimer allocates %.1f, want 2 (timer and handler)", allocs)
	}
	var pt *PeriodicTimer
	if allocs := testing.AllocsPerRun(50, func() { pt = NewPeriodicTimer(e, "ptimer:host-tick", sim.Millisecond, fire) }); allocs != 2 {
		t.Errorf("NewPeriodicTimer allocates %.1f, want 2 (timer and handler)", allocs)
	}
	if dt.name != "guest-timer" || dt.label != "timer:guest-timer" || pt.name != "host-tick" || pt.label != "ptimer:host-tick" {
		t.Fatalf("names %q, %q and labels %q, %q", dt.name, pt.name, dt.label, pt.label)
	}
}

func TestPeriodicTimerTicks(t *testing.T) {
	e := sim.NewEngine(1)
	var fired []sim.Time
	pt := NewPeriodicTimer(e, "ptimer:tick", 4*sim.Millisecond, func(now sim.Time) {
		fired = append(fired, now)
	})
	pt.Start(sim.Millisecond) // phase 1ms
	e.RunUntil(14 * sim.Millisecond)
	want := []sim.Time{1 * sim.Millisecond, 5 * sim.Millisecond, 9 * sim.Millisecond, 13 * sim.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if pt.Ticks() != 4 {
		t.Fatalf("Ticks() = %d", pt.Ticks())
	}
	if !pt.Running() {
		t.Fatal("timer should still be running")
	}
}

func TestPeriodicTimerStop(t *testing.T) {
	e := sim.NewEngine(1)
	count := 0
	pt := NewPeriodicTimer(e, "ptimer:tick", sim.Millisecond, func(sim.Time) { count++ })
	pt.Start(0)
	e.RunUntil(3 * sim.Millisecond)
	pt.Stop()
	if pt.Running() {
		t.Fatal("stopped timer reports running")
	}
	e.RunUntil(10 * sim.Millisecond)
	if count != 4 { // t=0,1,2,3 ms
		t.Fatalf("ticks after stop = %d, want 4", count)
	}
	pt.Stop() // idempotent
}

func TestPeriodicTimerDoubleStartPanics(t *testing.T) {
	e := sim.NewEngine(1)
	pt := NewPeriodicTimer(e, "ptimer:tick", sim.Millisecond, func(sim.Time) {})
	pt.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	pt.Start(0)
}

func TestPeriodicTimerBadPeriodPanics(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("non-positive period did not panic")
		}
	}()
	NewPeriodicTimer(e, "ptimer:tick", 0, func(sim.Time) {})
}

func TestPeriodicTimerRate(t *testing.T) {
	// A 250 Hz timer must fire exactly 2500 times in 10 simulated seconds.
	e := sim.NewEngine(1)
	count := 0
	pt := NewPeriodicTimer(e, "ptimer:tick", sim.PeriodFromHz(250), func(sim.Time) { count++ })
	pt.Start(pt.Period()) // first tick at t=4ms, so exactly t/period ticks in (0,10s]
	e.RunUntil(10 * sim.Second)
	if count != 2500 {
		t.Fatalf("250 Hz over 10 s fired %d ticks, want 2500", count)
	}
}

// Property: a DeadlineTimer armed with a monotonically consumed sequence of
// deadlines fires each exactly once, in order, never early.
func TestDeadlineTimerOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		deadlines := make([]sim.Time, len(raw))
		for i, r := range raw {
			deadlines[i] = sim.Time(r) + 1
		}
		sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })

		e := sim.NewEngine(5)
		var fired []sim.Time
		idx := 0
		var dt *DeadlineTimer
		dt = NewDeadlineTimer(e, "timer:p", func(now sim.Time) {
			fired = append(fired, now)
			idx++
			if idx < len(deadlines) {
				dt.Arm(deadlines[idx])
			}
		})
		dt.Arm(deadlines[0])
		e.Run()
		if len(fired) != len(deadlines) {
			return false
		}
		for i, f := range fired {
			// Never before the requested deadline; may be "now" if stale.
			if f < deadlines[i] && f != fired[max(0, i-1)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestPeriodicTimerNegativePhaseClamps(t *testing.T) {
	e := sim.NewEngine(1)
	var first sim.Time = -1
	pt := NewPeriodicTimer(e, "ptimer:x", sim.Millisecond, func(now sim.Time) {
		if first < 0 {
			first = now
		}
	})
	pt.Start(-5)
	e.RunUntil(2 * sim.Millisecond)
	if first != 0 {
		t.Fatalf("first tick at %v, want 0 (negative phase clamps)", first)
	}
}

func TestDeadlineTimerArmCountAcrossCancel(t *testing.T) {
	e := sim.NewEngine(1)
	dt := NewDeadlineTimer(e, "timer:x", func(sim.Time) {})
	dt.Arm(10)
	dt.Cancel()
	dt.Arm(20)
	e.Run()
	if dt.ArmCount() != 2 || dt.Expirations() != 1 {
		t.Fatalf("arm=%d exp=%d", dt.ArmCount(), dt.Expirations())
	}
}
