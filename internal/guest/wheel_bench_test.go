package guest

import (
	"testing"
	"unsafe"

	"paratick/internal/sim"
)

// BenchmarkWheelAddCancel measures the hot add/cancel path (every guest
// sleep and wake touches it).
func BenchmarkWheelAddCancel(b *testing.B) {
	w := NewTimerWheel(sim.Millisecond)
	tm := &SoftTimer{Deadline: 100 * sim.Millisecond, Fire: func(sim.Time) {}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Deadline = sim.Time(i%1000+1) * sim.Millisecond
		w.Add(tm)
		w.Cancel(tm)
	}
}

// BenchmarkWheelAdvance measures jiffy processing with a populated wheel.
func BenchmarkWheelAdvance(b *testing.B) {
	w := NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(1)
	// Keep ~64 timers alive: each firing re-queues itself further out. The
	// requeue closure is bound once per timer — rebuilding it per fire
	// allocates.
	for i := 0; i < 64; i++ {
		t := &SoftTimer{Deadline: rng.Between(sim.Millisecond, 200*sim.Millisecond)}
		t.Fire = func(now sim.Time) {
			t.Deadline = now + rng.Between(sim.Millisecond, 200*sim.Millisecond)
			w.Add(t)
		}
		w.Add(t)
	}
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += sim.Millisecond
		w.AdvanceTo(now)
	}
}

// BenchmarkWheelAdvanceSparseIdle measures the idle fast-forward: one
// pending timer, and each operation advances the wheel across a million
// empty jiffies to fire it. This is the dynticks/paratick long-idle case —
// with occupancy bitmaps the advance jumps straight to the occupied
// boundary instead of walking every jiffy.
func BenchmarkWheelAdvanceSparseIdle(b *testing.B) {
	const gap = 1_000_000 // jiffies per advance
	w := NewTimerWheel(sim.Millisecond)
	tm := &SoftTimer{Fire: func(sim.Time) {}}
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now > sim.Forever-2*gap*sim.Millisecond {
			// Rewind before simulated time would saturate at sim.Forever
			// (~9.2M iterations at 10¹² ns per advance).
			w = NewTimerWheel(sim.Millisecond)
			now = 0
		}
		now += gap * sim.Millisecond
		tm.Deadline = now
		w.Add(tm)
		if w.AdvanceTo(now) != 1 {
			b.Fatal("sparse advance did not fire the timer")
		}
	}
}

// BenchmarkWheelAdvanceDense measures jiffy processing with 10⁴ timers
// spread across mixed levels, each re-queueing on fire so occupancy stays
// constant. Most single-jiffy advances fire something or cascade a bucket.
func BenchmarkWheelAdvanceDense(b *testing.B) {
	const n = 10_000
	w := NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(1)
	// Deadlines up to 20s → levels 0 through 2 at a 1ms jiffy, ~0.5
	// expirations per jiffy.
	span := func() sim.Time { return rng.Between(sim.Millisecond, 20*sim.Second) }
	for i := 0; i < n; i++ {
		t := &SoftTimer{Deadline: span()}
		// Bind the requeue closure once per timer: rebuilding it per fire
		// was the benchmark's only steady-state allocation (48 B/op).
		t.Fire = func(now sim.Time) {
			t.Deadline = now + span()
			w.Add(t)
		}
		w.Add(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += sim.Millisecond
		w.AdvanceTo(now)
	}
}

// BenchmarkWheelNextExpiry measures the idle-entry lookup.
func BenchmarkWheelNextExpiry(b *testing.B) {
	w := NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(1)
	for i := 0; i < 32; i++ {
		w.Add(&SoftTimer{
			Deadline: rng.Between(sim.Millisecond, sim.Second),
			Fire:     func(sim.Time) {},
		})
	}
	b.ResetTimer()
	var sink sim.Time
	for i := 0; i < b.N; i++ {
		sink = w.NextExpiry()
	}
	_ = sink
}

// BenchmarkWheelNextExpiryDense measures the idle-entry evaluation against
// a dense wheel (10⁴ timers, mixed levels) with the realistic churn around
// it: every idle entry arms a short wakeup timer that the subsequent idle
// exit cancels, so each NextExpiry follows a change of the earliest timer.
// The bitmaps answer from one bucket: the lowest occupied level's lowest
// occupied slot.
func BenchmarkWheelNextExpiryDense(b *testing.B) {
	const n = 10_000
	w := NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(1)
	for i := 0; i < n; i++ {
		w.Add(&SoftTimer{
			// 1s..2000s: occupancy across levels 1 through 3.
			Deadline: rng.Between(sim.Second, 2000*sim.Second),
			Fire:     func(sim.Time) {},
		})
	}
	wakeup := &SoftTimer{Fire: func(sim.Time) {}}
	b.ReportAllocs()
	b.ResetTimer()
	var sink sim.Time
	for i := 0; i < b.N; i++ {
		// The wakeup is the earliest pending timer, so canceling it always
		// moves the minimum to another bucket.
		wakeup.Deadline = sim.Time(i%1000+1) * sim.Millisecond
		w.Add(wakeup)
		sink = w.NextExpiry()
		w.Cancel(wakeup)
		sink = w.NextExpiry()
	}
	_ = sink
}

// TestWheelSteadyStateAllocs asserts the hot wheel operations — Add,
// Cancel, and NextExpiry, including the scan after the earliest timer is
// canceled — allocate nothing on a fresh wheel once it holds
// timers: the bucket lists are threaded through the timers, so no Add
// grows a bucket.
func TestWheelSteadyStateAllocs(t *testing.T) {
	w := NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(7)
	for i := 0; i < 256; i++ {
		w.Add(&SoftTimer{
			Deadline: rng.Between(sim.Millisecond, 100*sim.Second),
			Fire:     func(sim.Time) {},
		})
	}
	tm := &SoftTimer{Fire: func(sim.Time) {}}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Deadline = sim.Time(i%1999+1) * sim.Millisecond
		w.Add(tm)
		_ = w.NextExpiry()
		w.Cancel(tm)
		_ = w.NextExpiry() // the canceled timer was the minimum
		i++
	})
	if allocs != 0 {
		t.Fatalf("Add/NextExpiry/Cancel steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestNewTimerWheelAllocatesOnlyItsShell pins what an unused wheel costs:
// NewTimerWheel allocates the wheel and nothing else, and advancing,
// querying and resetting it allocate nothing. The first bucketed Add
// allocates the bucket array, once: a Reset keeps it, so the next Add on
// the recycled wheel allocates nothing.
func TestNewTimerWheelAllocatesOnlyItsShell(t *testing.T) {
	var w *TimerWheel
	if n := testing.AllocsPerRun(100, func() {
		w = NewTimerWheel(sim.Millisecond)
		w.AdvanceTo(sim.Second)
		_ = w.NextExpiry()
		w.Reset(sim.Millisecond)
	}); n != 1 {
		t.Fatalf("an unused wheel allocates %.1f objects, want 1", n)
	}
	tm := &SoftTimer{Deadline: sim.Millisecond, Fire: func(sim.Time) {}}
	if n := testing.AllocsPerRun(100, func() {
		w = NewTimerWheel(sim.Millisecond)
		w.Add(tm)
		w.Cancel(tm)
	}); n != 2 {
		t.Fatalf("a wheel's first Add brings it to %.1f objects, want 2 (the wheel and its bucket array)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		w.Reset(sim.Millisecond)
		w.Add(tm)
	}); n != 0 {
		t.Fatalf("Add on a reset wheel allocates %.1f objects, want 0", n)
	}
}

// TestWheelSize bounds a wheel's inline size. The bucket heads live behind
// one pointer, so a wheel that never holds a timer costs a few words, not
// 11×64 inline bucket headers.
func TestWheelSize(t *testing.T) {
	if n := unsafe.Sizeof(TimerWheel{}); n > 160 {
		t.Fatalf("TimerWheel is %d bytes, want at most 160", n)
	}
}

// TestWheelAdvanceDenseZeroBytes locks in the advance-dense allocation fix:
// a populated wheel advancing jiffy by jiffy, with every fired timer
// re-queueing itself, must not allocate in steady state. The requeue
// closure is bound once per timer; a regression that rebuilds it per fire
// (the old 48 B/op) trips this immediately.
func TestWheelAdvanceDenseZeroBytes(t *testing.T) {
	const n = 1000
	w := NewTimerWheel(sim.Millisecond)
	rng := sim.NewRand(1)
	span := func() sim.Time { return rng.Between(sim.Millisecond, 20*sim.Second) }
	for i := 0; i < n; i++ {
		tm := &SoftTimer{Deadline: span()}
		tm.Fire = func(now sim.Time) {
			tm.Deadline = now + span()
			w.Add(tm)
		}
		w.Add(tm)
	}
	// Warm the wheel: the first passes grow the level-0 drain's scratch to
	// the largest due bucket; afterwards every drain fits in it.
	now := sim.Time(0)
	for i := 0; i < 40_000; i++ {
		now += sim.Millisecond
		w.AdvanceTo(now)
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		now += sim.Millisecond
		w.AdvanceTo(now)
	})
	if allocs != 0 {
		t.Fatalf("dense advance steady state allocates %.1f allocs/op, want 0", allocs)
	}
}
