package guest

import (
	"sort"
	"testing"
	"testing/quick"

	"paratick/internal/sim"
)

const testJiffy = 4 * sim.Millisecond

func TestWheelBasicsEmpty(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	if w.Len() != 0 {
		t.Fatal("new wheel not empty")
	}
	if w.NextExpiry() != sim.Forever {
		t.Fatal("empty wheel NextExpiry != Forever")
	}
	if w.AdvanceTo(sim.Second) != 0 {
		t.Fatal("empty wheel fired timers")
	}
	if w.Jiffy() != testJiffy {
		t.Fatal("Jiffy accessor")
	}
}

func TestWheelBadJiffyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero jiffy did not panic")
		}
	}()
	NewTimerWheel(0)
}

func TestWheelFiresAtOrAfterDeadline(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	var firedAt sim.Time
	tm := &SoftTimer{Deadline: 10 * sim.Millisecond, Fire: func(now sim.Time) { firedAt = now }}
	w.Add(tm)
	if !tm.Pending() {
		t.Fatal("added timer not pending")
	}
	// Advance to just before: must not fire (10ms rounds up to jiffy 3 = 12ms).
	w.AdvanceTo(11 * sim.Millisecond)
	if firedAt != 0 {
		t.Fatalf("fired early at %v", firedAt)
	}
	w.AdvanceTo(12 * sim.Millisecond)
	if firedAt == 0 {
		t.Fatal("did not fire by 12ms")
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if w.Len() != 0 {
		t.Fatal("wheel not empty after firing")
	}
}

func TestWheelNeverFiresEarlyJiffyGranularity(t *testing.T) {
	// A deadline exactly on a jiffy boundary fires at that boundary.
	w := NewTimerWheel(testJiffy)
	fired := false
	w.Add(&SoftTimer{Deadline: 2 * testJiffy, Fire: func(sim.Time) { fired = true }})
	w.AdvanceTo(2*testJiffy - 1)
	if fired {
		t.Fatal("fired before boundary")
	}
	w.AdvanceTo(2 * testJiffy)
	if !fired {
		t.Fatal("did not fire at boundary")
	}
}

func TestWheelNextExpiry(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	w.Add(&SoftTimer{Deadline: 100 * sim.Millisecond, Fire: func(sim.Time) {}})
	w.Add(&SoftTimer{Deadline: 20 * sim.Millisecond, Fire: func(sim.Time) {}})
	w.Add(&SoftTimer{Deadline: 300 * sim.Millisecond, Fire: func(sim.Time) {}})
	if got := w.NextExpiry(); got != 20*sim.Millisecond {
		t.Fatalf("NextExpiry = %v, want 20ms", got)
	}
	w.AdvanceTo(25 * sim.Millisecond)
	if got := w.NextExpiry(); got != 100*sim.Millisecond {
		t.Fatalf("after advance NextExpiry = %v, want 100ms", got)
	}
}

func TestWheelCancel(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	fired := false
	tm := &SoftTimer{Deadline: 20 * sim.Millisecond, Fire: func(sim.Time) { fired = true }}
	w.Add(tm)
	if !w.Cancel(tm) {
		t.Fatal("Cancel returned false")
	}
	if w.Cancel(tm) {
		t.Fatal("double Cancel returned true")
	}
	w.AdvanceTo(sim.Second)
	if fired {
		t.Fatal("canceled timer fired")
	}
	if w.Len() != 0 {
		t.Fatal("count wrong after cancel")
	}
	// NextExpiry after canceling the minimum must not return its
	// deadline.
	w2 := NewTimerWheel(testJiffy)
	a := &SoftTimer{Deadline: 8 * sim.Millisecond, Fire: func(sim.Time) {}}
	b := &SoftTimer{Deadline: 80 * sim.Millisecond, Fire: func(sim.Time) {}}
	w2.Add(a)
	w2.Add(b)
	w2.Cancel(a)
	if got := w2.NextExpiry(); got != 80*sim.Millisecond {
		t.Fatalf("NextExpiry after canceling the minimum = %v, want 80ms", got)
	}
}

func TestWheelCancelMiddleBucket(t *testing.T) {
	// Swap-removal inside one bucket keeps the other timers intact.
	w := NewTimerWheel(testJiffy)
	count := 0
	var timers []*SoftTimer
	for i := 0; i < 5; i++ {
		tm := &SoftTimer{Deadline: testJiffy, Fire: func(sim.Time) { count++ }}
		w.Add(tm)
		timers = append(timers, tm)
	}
	w.Cancel(timers[1])
	w.Cancel(timers[3])
	w.AdvanceTo(2 * testJiffy)
	if count != 3 {
		t.Fatalf("fired %d, want 3", count)
	}
}

func TestWheelAddPanics(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add(nil) did not panic")
			}
		}()
		w.Add(nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add without Fire did not panic")
			}
		}()
		w.Add(&SoftTimer{Deadline: 1})
	}()
	tm := &SoftTimer{Deadline: testJiffy, Fire: func(sim.Time) {}}
	w.Add(tm)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Add did not panic")
			}
		}()
		w.Add(tm)
	}()
}

func TestWheelLongDeadlineCascades(t *testing.T) {
	// A timer several levels up must cascade down and fire on time.
	w := NewTimerWheel(sim.Millisecond)
	deadline := 700 * sim.Millisecond // level ≥ 1 territory (64 jiffies per level-0 lap)
	var firedAt sim.Time
	w.Add(&SoftTimer{Deadline: deadline, Fire: func(now sim.Time) { firedAt = now }})
	for now := sim.Time(0); now <= sim.Second; now += sim.Millisecond {
		w.AdvanceTo(now)
		if firedAt != 0 {
			break
		}
	}
	if firedAt == 0 {
		t.Fatal("long timer never fired")
	}
	if firedAt < deadline {
		t.Fatalf("fired at %v before deadline %v", firedAt, deadline)
	}
	if firedAt > deadline+2*sim.Millisecond {
		t.Fatalf("fired at %v, too long after deadline %v", firedAt, deadline)
	}
}

func TestWheelVeryLongDeadlineBeyondHorizon(t *testing.T) {
	// A deadline past 2^21 jiffies, the reach of a six-level 8×-coarsening
	// wheel, still fires on time: never early, and by the advance past it.
	w := NewTimerWheel(sim.Millisecond)
	deadline := sim.Time(1<<21+1000) * sim.Millisecond
	fired := false
	w.Add(&SoftTimer{Deadline: deadline, Fire: func(sim.Time) { fired = true }})
	// Advance in coarse steps to keep the test fast.
	step := 50 * sim.Millisecond
	for now := sim.Time(0); now < deadline; now += step {
		w.AdvanceTo(now)
		if fired {
			t.Fatalf("fired before deadline (at ≤ %v < %v)", now, deadline)
		}
	}
	w.AdvanceTo(deadline + step)
	if !fired {
		t.Fatal("beyond-horizon timer never fired")
	}
}

func TestWheelManyTimersAllFireOnce(t *testing.T) {
	w := NewTimerWheel(sim.Millisecond)
	const n = 500
	counts := make([]int, n)
	rng := sim.NewRand(42)
	maxDeadline := sim.Time(0)
	for i := 0; i < n; i++ {
		i := i
		d := rng.Between(sim.Millisecond, 2*sim.Second)
		if d > maxDeadline {
			maxDeadline = d
		}
		w.Add(&SoftTimer{Deadline: d, Fire: func(sim.Time) { counts[i]++ }})
	}
	for now := sim.Time(0); now <= maxDeadline+10*sim.Millisecond; now += sim.Millisecond {
		w.AdvanceTo(now)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("timer %d fired %d times", i, c)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("wheel left %d timers", w.Len())
	}
}

// Property: for random deadlines and a random advance schedule, every timer
// fires exactly once, never before its deadline, and never more than one
// jiffy after the advance that covered it.
func TestWheelCorrectnessProperty(t *testing.T) {
	f := func(raw []uint16, stepsRaw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := NewTimerWheel(sim.Millisecond)
		type rec struct {
			deadline sim.Time
			firedAt  sim.Time
			fires    int
		}
		recs := make([]*rec, len(raw))
		for i, r := range raw {
			d := sim.Time(r%2000+1) * sim.Millisecond / 2 // up to 1s, off-boundary
			recs[i] = &rec{deadline: d}
			rc := recs[i]
			w.Add(&SoftTimer{Deadline: d, Fire: func(now sim.Time) {
				rc.fires++
				rc.firedAt = now
			}})
		}
		now := sim.Time(0)
		for _, s := range stepsRaw {
			now += sim.Time(s%50+1) * sim.Millisecond
			w.AdvanceTo(now)
		}
		w.AdvanceTo(2 * sim.Second)
		for _, rc := range recs {
			if rc.fires != 1 {
				return false
			}
			if rc.firedAt < rc.deadline {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextExpiry is always ≤ the true minimum pending deadline's
// jiffy-rounded value and equals Forever iff empty.
func TestWheelNextExpiryProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		w := NewTimerWheel(sim.Millisecond)
		var deadlines []sim.Time
		for _, r := range raw {
			d := sim.Time(r%5000+1) * sim.Millisecond
			deadlines = append(deadlines, d)
			w.Add(&SoftTimer{Deadline: d, Fire: func(sim.Time) {}})
		}
		if len(deadlines) == 0 {
			return w.NextExpiry() == sim.Forever
		}
		sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })
		return w.NextExpiry() == deadlines[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftTimerPendingNil(t *testing.T) {
	var tm *SoftTimer
	if tm.Pending() {
		t.Fatal("nil timer pending")
	}
}

func TestWheelCancelThenReAdd(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	fired := 0
	tm := &SoftTimer{Deadline: 2 * testJiffy, Fire: func(sim.Time) { fired++ }}
	w.Add(tm)
	w.Cancel(tm)
	tm.Deadline = 3 * testJiffy
	w.Add(tm) // re-add after cancel is legal
	w.AdvanceTo(4 * testJiffy)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// TestWheelForeverDeadline pins the deadlineJiffies overflow fix: adding a
// timer at sim.Forever (or close enough that the round-up `deadline + jiffy
// - 1` would wrap negative) must not panic, must report NextExpiry ==
// Forever, and must never fire within any realistic horizon.
func TestWheelForeverDeadline(t *testing.T) {
	for _, deadline := range []sim.Time{
		sim.Forever,
		sim.Forever - 1,
		sim.Forever - testJiffy + 2, // just inside the overflow zone
	} {
		w := NewTimerWheel(testJiffy)
		tm := &SoftTimer{Deadline: deadline, Fire: func(sim.Time) { t.Fatalf("deadline %v fired", deadline) }}
		w.Add(tm)
		if !tm.Pending() {
			t.Fatalf("deadline %v: timer not pending", deadline)
		}
		if got := w.NextExpiry(); got != sim.Forever {
			t.Fatalf("deadline %v: NextExpiry = %v, want Forever", deadline, got)
		}
		if n := w.AdvanceTo(1000 * sim.Second); n != 0 {
			t.Fatalf("deadline %v: fired %d timers", deadline, n)
		}
		if got := w.NextExpiry(); got != sim.Forever {
			t.Fatalf("deadline %v after advance: NextExpiry = %v, want Forever", deadline, got)
		}
		if !w.Cancel(tm) {
			t.Fatalf("deadline %v: Cancel returned false", deadline)
		}
	}
}

// TestWheelForeverAmongOthers checks a Forever timer does not mask or
// distort the expiry of ordinary timers sharing the wheel.
func TestWheelForeverAmongOthers(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	w.Add(&SoftTimer{Deadline: sim.Forever, Fire: func(sim.Time) { t.Fatal("forever fired") }})
	fired := false
	w.Add(&SoftTimer{Deadline: 2 * testJiffy, Fire: func(sim.Time) { fired = true }})
	if got := w.NextExpiry(); got != 2*testJiffy {
		t.Fatalf("NextExpiry = %v, want %v", got, 2*testJiffy)
	}
	if n := w.AdvanceTo(3 * testJiffy); n != 1 || !fired {
		t.Fatalf("fired %d (%v), want 1", n, fired)
	}
	if got := w.NextExpiry(); got != sim.Forever {
		t.Fatalf("NextExpiry = %v, want Forever", got)
	}
}

// TestWheelLateAddFiresNextJiffy: a deadline at or before the current jiffy
// fires at the next boundary, not a full wheel lap later.
func TestWheelLateAddFiresNextJiffy(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	w.AdvanceTo(10 * testJiffy)
	var firedAt sim.Time
	w.Add(&SoftTimer{Deadline: 3 * testJiffy, Fire: func(now sim.Time) { firedAt = now }})
	if got := w.NextExpiry(); got != 11*testJiffy {
		t.Fatalf("NextExpiry = %v, want %v", got, 11*testJiffy)
	}
	if n := w.AdvanceTo(11 * testJiffy); n != 1 {
		t.Fatalf("fired %d, want 1", n)
	}
	if firedAt != 11*testJiffy {
		t.Fatalf("fired at %v, want %v", firedAt, 11*testJiffy)
	}
}

// TestWheelSameJiffyDeadlineOrder pins the AdvanceTo contract: timers
// expiring within one jiffy fire in (Deadline, Add-order) order even when
// added out of deadline order.
func TestWheelSameJiffyDeadlineOrder(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	var order []int
	mk := func(id int, d sim.Time) *SoftTimer {
		return &SoftTimer{Deadline: d, Fire: func(sim.Time) { order = append(order, id) }}
	}
	// All four round up to jiffy 3 (= 12ms at the 4ms test jiffy); ids 2 and
	// 3 share a deadline, so Add order breaks their tie.
	w.Add(mk(0, 11*sim.Millisecond))
	w.Add(mk(1, 9*sim.Millisecond))
	w.Add(mk(2, 10*sim.Millisecond))
	w.Add(mk(3, 10*sim.Millisecond))
	if n := w.AdvanceTo(12 * sim.Millisecond); n != 4 {
		t.Fatalf("fired %d, want 4", n)
	}
	want := []int{1, 2, 3, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
}

// TestWheelCancelSiblingDuringFire: a Fire handler canceling another timer
// that expires in the same jiffy must see a clean no-op (the sibling is
// already detached), not a stale bucket reference.
func TestWheelCancelSiblingDuringFire(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	var second *SoftTimer
	secondFired := false
	first := &SoftTimer{Deadline: testJiffy - 1, Fire: func(sim.Time) {
		if w.Cancel(second) {
			t.Error("canceling an expiring sibling reported pending")
		}
	}}
	second = &SoftTimer{Deadline: testJiffy, Fire: func(sim.Time) { secondFired = true }}
	w.Add(first)
	w.Add(second)
	if n := w.AdvanceTo(2 * testJiffy); n != 2 {
		t.Fatalf("fired %d, want 2", n)
	}
	if !secondFired {
		t.Fatal("detached sibling never fired")
	}
	if w.Len() != 0 {
		t.Fatalf("wheel retains %d timers", w.Len())
	}
}

// TestWheelSparseAdvanceSkipsEmptyJiffies checks the O(occupancy) fast
// path end to end: one timer, a multi-million-jiffy advance, exact fire
// time — and an empty wheel advancing even further.
func TestWheelSparseAdvanceSkipsEmptyJiffies(t *testing.T) {
	w := NewTimerWheel(sim.Millisecond)
	var firedAt sim.Time
	deadline := 3_000_000 * sim.Millisecond // beyond the top level's 2,097,152-jiffy reach
	w.Add(&SoftTimer{Deadline: deadline, Fire: func(now sim.Time) { firedAt = now }})
	if n := w.AdvanceTo(deadline - sim.Millisecond); n != 0 {
		t.Fatalf("fired %d early", n)
	}
	if n := w.AdvanceTo(deadline); n != 1 {
		t.Fatalf("fired %d, want 1", n)
	}
	if firedAt != deadline {
		t.Fatalf("fired at %v, want %v", firedAt, deadline)
	}
	// Empty wheel: a huge advance must be a cheap no-op that still moves
	// the clock (a subsequent late add fires at the next boundary).
	if n := w.AdvanceTo(100_000 * sim.Second); n != 0 {
		t.Fatalf("empty advance fired %d", n)
	}
	fired := false
	w.Add(&SoftTimer{Deadline: sim.Second, Fire: func(sim.Time) { fired = true }})
	w.AdvanceTo(100_000*sim.Second + sim.Millisecond)
	if !fired {
		t.Fatal("late add after empty fast-forward never fired")
	}
}

func TestWheelFireCanAddTimers(t *testing.T) {
	// A firing timer that re-queues itself (periodic soft timer pattern).
	w := NewTimerWheel(testJiffy)
	count := 0
	var tm *SoftTimer
	tm = &SoftTimer{Deadline: testJiffy, Fire: func(now sim.Time) {
		count++
		if count < 3 {
			tm.Deadline = now + testJiffy
			w.Add(tm)
		}
	}}
	w.Add(tm)
	for now := sim.Time(0); now <= 20*testJiffy; now += testJiffy {
		w.AdvanceTo(now)
	}
	if count != 3 {
		t.Fatalf("periodic re-add fired %d times, want 3", count)
	}
}

// TestWheelResetDetachesEveryTimer fills every level, three timers to a
// bucket, then resets the wheel. A 1 ns jiffy lets fire jiffies reach the
// top level. Every timer must come out detached with nil links, the wheel
// empty, and each timer must then queue and fire again exactly once, in
// deadline order.
func TestWheelResetDetachesEveryTimer(t *testing.T) {
	w := NewTimerWheel(sim.Nanosecond)
	w.AdvanceTo(5)
	var fired []int
	var timers []*SoftTimer
	add := func(deadline sim.Time) {
		id := len(timers)
		tm := &SoftTimer{Deadline: deadline, Fire: func(sim.Time) { fired = append(fired, id) }}
		timers = append(timers, tm)
		w.Add(tm)
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		// Digit lvl is 7, above the clock's, and the digits below it 0: one
		// bucket per level, up to 7·2^60 at the top.
		for k := 0; k < 3; k++ {
			add(sim.Time(7) << (lvl * wheelDigit))
		}
	}
	add(sim.Forever)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if w.occ[lvl] == 0 {
			t.Fatalf("level %d holds no timer before the reset", lvl)
		}
	}
	w.Reset(sim.Nanosecond)
	for i, tm := range timers {
		if tm.Pending() || tm.next != nil || tm.prev != nil {
			t.Fatalf("timer %d after Reset: pending %v, next %p, prev %p", i, tm.Pending(), tm.next, tm.prev)
		}
	}
	if w.Len() != 0 || w.occ != [wheelLevels]uint64{} || w.NextExpiry() != sim.Forever {
		t.Fatalf("wheel not empty after Reset: len %d, occ %v", w.Len(), w.occ)
	}
	if w.buckets == nil || *w.buckets != [wheelLevels][wheelSlots]*SoftTimer{} {
		t.Fatal("Reset dropped the bucket array or left a bucket head set")
	}
	for _, tm := range timers {
		w.Add(tm)
	}
	if w.Len() != len(timers) {
		t.Fatalf("re-added %d timers, wheel holds %d", len(timers), w.Len())
	}
	w.AdvanceTo(sim.Forever)
	if len(fired) != len(timers)-1 || w.Len() != 1 { // the Forever timer stays
		t.Fatalf("fired %v, want every timer but the last once", fired)
	}
	for i, id := range fired {
		if id != i {
			t.Fatalf("fire order %v, want deadline order", fired)
		}
	}
}

// TestWheelNeverFiresForeverTimer advances a 1 ms wheel, whose jiffy does
// not divide sim.Forever, to the last representable instant: a timer at
// sim.Forever means "never" and must stay queued, while one a jiffy before
// the never jiffy fires.
func TestWheelNeverFiresForeverTimer(t *testing.T) {
	w := NewTimerWheel(sim.Millisecond)
	if sim.Forever%sim.Millisecond == 0 {
		t.Fatal("1 ms divides sim.Forever; the test needs a jiffy that does not")
	}
	never, last := false, false
	w.Add(&SoftTimer{Deadline: sim.Forever, Fire: func(sim.Time) { never = true }})
	w.Add(&SoftTimer{Deadline: sim.Time(w.maxJiff-1) * sim.Millisecond, Fire: func(sim.Time) { last = true }})
	if n := w.AdvanceTo(sim.Forever - 1); n != 1 || never || !last {
		t.Fatalf("AdvanceTo(Forever-1) fired %d (never %v, last %v), want only the timer before the never jiffy", n, never, last)
	}
	if w.Len() != 1 || w.NextExpiry() != sim.Forever {
		t.Fatalf("wheel holds %d timers, next expiry %v; want the Forever timer, still pending", w.Len(), w.NextExpiry())
	}
}

// TestWheelFireCallbacksKeepDrainOrder runs Fire callbacks that change
// their own wheel while one level-0 bucket drains. The whole bucket is
// detached before the first callback, so canceling a sibling of the same
// jiffy is a no-op and the sibling still fires; timers added by a callback
// fire at their own jiffies; and a sibling that a callback re-adds (or
// re-adds and cancels) before its turn does not fire in this drain, and
// fires once at its new deadline (or never).
func TestWheelFireCallbacksKeepDrainOrder(t *testing.T) {
	w := NewTimerWheel(testJiffy)
	type fire struct {
		name string
		at   sim.Time
	}
	var got []fire
	var a, b, c, d, h *SoftTimer
	timer := func(name string, deadline sim.Time, then func(now sim.Time)) *SoftTimer {
		return &SoftTimer{Deadline: deadline, Fire: func(now sim.Time) {
			got = append(got, fire{name, now})
			if then != nil {
				then(now)
			}
		}}
	}
	a = timer("a", testJiffy-4, func(now sim.Time) {
		if w.Cancel(c) {
			t.Error("canceling a sibling of the draining bucket reported it pending")
		}
		w.Add(timer("e", now, nil))             // late: the next jiffy
		w.Add(timer("f", now+testJiffy/2, nil)) // also the next jiffy, after e
	})
	b = timer("b", testJiffy-3, func(now sim.Time) {
		d.Deadline = now + 3*testJiffy
		w.Add(d)
		h.Deadline = now + testJiffy
		w.Add(h)
		w.Cancel(h)
	})
	c = timer("c", testJiffy-2, nil)
	h = timer("h", testJiffy-1, nil)
	d = timer("d", testJiffy, nil)
	for _, tm := range []*SoftTimer{d, h, c, b, a} {
		w.Add(tm)
	}
	for now := sim.Time(0); now <= 8*testJiffy; now += testJiffy {
		w.AdvanceTo(now)
	}
	want := []fire{{"a", testJiffy}, {"b", testJiffy}, {"c", testJiffy},
		{"e", 2 * testJiffy}, {"f", 2 * testJiffy}, {"d", 4 * testJiffy}}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if w.Len() != 0 || h.Pending() {
		t.Fatalf("wheel holds %d timers after the drain (h pending %v), want none", w.Len(), h.Pending())
	}
}
