package sim

import (
	"runtime"
	"testing"
	"time"

	"paratick/internal/snap"
)

// laneTickers schedules a self-rescheduling event per lane and returns the
// per-lane fire counters.
func laneTickers(se *ShardedEngine, period Time) []*int {
	counts := make([]*int, se.Lanes())
	for l := 0; l < se.Lanes(); l++ {
		n := new(int)
		counts[l] = n
		e := se.Engine(l)
		var fn Handler
		fn = func(e *Engine) {
			*n++
			e.After(period, "tick", fn)
		}
		e.After(period, "tick", fn)
	}
	return counts
}

func TestShardedLaneSeedingIsPureFunctionOfSeedAndLanes(t *testing.T) {
	a, err := NewSharded(42, 4, 1, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(42, 4, 4, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 4; l++ {
		if g, w := a.Engine(l).Rand().Uint64(), b.Engine(l).Rand().Uint64(); g != w {
			t.Fatalf("lane %d RNG differs across shard counts: %d vs %d", l, g, w)
		}
	}
}

func TestShardedRunUntilMatchesAcrossShardCounts(t *testing.T) {
	run := func(shards int) []int {
		se, err := NewSharded(7, 4, shards, Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		counts := laneTickers(se, 250*Microsecond)
		se.RunUntil(10 * Millisecond)
		out := make([]int, len(counts))
		for i, n := range counts {
			out[i] = *n
		}
		if se.Now() != 10*Millisecond {
			t.Fatalf("shards=%d: now %v, want 10ms", shards, se.Now())
		}
		return out
	}
	serial := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		for l := range serial {
			if got[l] != serial[l] {
				t.Fatalf("shards=%d lane %d fired %d events, serial fired %d", shards, l, got[l], serial[l])
			}
		}
	}
	if serial[0] == 0 {
		t.Fatal("tickers never fired")
	}
}

func TestShardedMessagesDrainInSourceLaneOrder(t *testing.T) {
	se, err := NewSharded(1, 3, 1, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	se.SetDeliver(func(m Message) { got = append(got, m.A) })
	// Post from lanes in reverse order; drain must reorder by source lane.
	for src := 2; src >= 0; src-- {
		se.Post(Message{Src: src, Dst: 0, FireAt: 2 * Millisecond, A: int64(src * 10)})
		se.Post(Message{Src: src, Dst: 0, FireAt: 2 * Millisecond, A: int64(src*10 + 1)})
	}
	se.RunUntil(Millisecond)
	want := []int64{0, 1, 10, 11, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("drained %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestShardedPostBelowHorizonPanics(t *testing.T) {
	se, err := NewSharded(1, 2, 1, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("posting below now+quantum must panic")
		}
	}()
	se.Post(Message{Src: 0, Dst: 1, FireAt: Millisecond - 1})
}

// TestShardedQuiescenceAdvancesEveryLane covers RunUntil's global
// quiescence branch: once no lane holds an event and the mailboxes are
// drained after a barrier, the coordinator moves every lane clock to the
// deadline at once and runs no further barrier.
func TestShardedQuiescenceAdvancesEveryLane(t *testing.T) {
	for _, tc := range []struct {
		name    string
		eventAt Time // on lane 1; 0 = none
		hooks   []Time
	}{
		{"empty", 0, []Time{Millisecond}},
		{"one-event", 5 * Millisecond, []Time{Millisecond, 2 * Millisecond, 3 * Millisecond, 4 * Millisecond, 5 * Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			se, err := NewSharded(1, 2, 1, Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			fired := false
			if tc.eventAt > 0 {
				se.Engine(1).At(tc.eventAt, "once", func(*Engine) { fired = true })
			}
			var hooks []Time
			se.SetBarrierHook(func(now Time) { hooks = append(hooks, now) })
			se.RunUntil(10 * Millisecond)
			for l := 0; l < se.Lanes(); l++ {
				if now := se.Engine(l).Now(); now != 10*Millisecond {
					t.Errorf("lane %d now %v, want 10ms", l, now)
				}
			}
			if tc.eventAt > 0 && !fired {
				t.Error("the lane-1 event never fired")
			}
			if len(hooks) != len(tc.hooks) {
				t.Fatalf("barrier hook ran at %v, want %v", hooks, tc.hooks)
			}
			for i := range hooks {
				if hooks[i] != tc.hooks[i] {
					t.Fatalf("barrier hook ran at %v, want %v", hooks, tc.hooks)
				}
			}
		})
	}
}

func TestShardedStopHonoredAtBarrier(t *testing.T) {
	se, err := NewSharded(1, 2, 1, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	laneTickers(se, 100*Microsecond)
	var stoppedAt Time
	se.SetBarrierHook(func(now Time) {
		if now >= 3*Millisecond && stoppedAt == 0 {
			stoppedAt = now
			se.Stop()
		}
	})
	se.RunUntil(10 * Millisecond)
	if stoppedAt != 3*Millisecond {
		t.Fatalf("stop requested at %v, want 3ms", stoppedAt)
	}
	if !se.Stopped() {
		t.Fatal("coordinator should report stopped")
	}
	// Matching Engine.RunUntil, a stopped run leaves every lane clock at
	// the barrier it stopped at.
	for l := 0; l < se.Lanes(); l++ {
		if now := se.Engine(l).Now(); now != 3*Millisecond {
			t.Fatalf("lane %d now %v, want 3ms", l, now)
		}
	}
	fired := se.Fired()
	if lane0 := se.Engine(0).Fired(); lane0 == 0 || lane0 > 3*10*2 {
		t.Fatalf("lane 0 fired %d events; want a count cut at the 3ms barrier", lane0)
	}
	// The stop is terminal: a later RunUntil fires nothing and moves no
	// clock, until Reset.
	se.RunUntil(20 * Millisecond)
	if se.Fired() != fired || se.Now() != 3*Millisecond {
		t.Fatalf("stopped coordinator moved on: fired %d → %d, now %v", fired, se.Fired(), se.Now())
	}
	se.Reset(1)
	if se.Stopped() {
		t.Fatal("Reset must clear the stop")
	}
}

// TestShardedRunUntilAllocsNothing pins the multi-shard coordinator's
// reuse contract: its worker handles and channels are built once, so a warm
// 2-shard RunUntil allocates nothing, and the goroutines a call starts are
// all gone once it returns, also when the barrier hook stops the run
// mid-way.
func TestShardedRunUntilAllocsNothing(t *testing.T) {
	se, err := NewSharded(1, 4, 2, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// One self-rescheduling ticker per lane, bound once so re-arming it
	// after a Reset allocates nothing.
	ticks := make([]Handler, se.Lanes())
	for l := range ticks {
		var fn Handler
		fn = func(e *Engine) { e.After(100*Microsecond, "tick", fn) }
		ticks[l] = fn
	}
	arm := func() {
		for l, fn := range ticks {
			se.Engine(l).After(100*Microsecond, "tick", fn)
		}
	}
	arm()
	base := runtime.NumGoroutine()
	window := func() { se.RunUntil(se.Now() + 2*Millisecond) }
	for i := 0; i < 4; i++ {
		window()
	}
	waitGoroutines(t, base, "a warm RunUntil")
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("a warm 2-shard RunUntil allocates %.1f, want 0", allocs)
	}
	waitGoroutines(t, base, "101 more RunUntil calls")

	// A mid-run Stop ends the run at a barrier while the workers wait for
	// the next span; they must still be released.
	stopAt := Time(0)
	se.SetBarrierHook(func(now Time) {
		if now == stopAt {
			se.Stop()
		}
	})
	stopped := func() {
		se.Reset(1)
		arm()
		stopAt = 3 * Millisecond
		se.RunUntil(10 * Millisecond)
	}
	stopped()
	if !se.Stopped() || se.Now() != 3*Millisecond {
		t.Fatalf("stopped run: stopped %v at %v, want true at 3ms", se.Stopped(), se.Now())
	}
	waitGoroutines(t, base, "a run stopped at a barrier")
	if allocs := testing.AllocsPerRun(20, stopped); allocs != 0 {
		t.Fatalf("a warm 2-shard run stopped mid-way allocates %.1f, want 0", allocs)
	}
	waitGoroutines(t, base, "21 more stopped runs")
}

// waitGoroutines fails the test unless the goroutine count settles back to
// base. A worker that has taken its stop value may still be on its way out
// when RunUntil returns, so the count is given a moment to settle.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s, %d goroutines run, want the %d from before the first call", after, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	a, err := NewSharded(9, 4, 2, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	laneTickers(a, 300*Microsecond)
	a.RunUntil(5 * Millisecond)
	var enc snap.Encoder
	a.Save(&enc)
	data := enc.Bytes()

	// Load restores scalar engine state into an empty coordinator; event
	// re-arming is the owners' job (exercised end to end by the experiment
	// checkpoint tests).
	b, err := NewSharded(9, 4, 2, Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(snap.NewDecoder(data)); err != nil {
		t.Fatal(err)
	}
	var again snap.Encoder
	b.Save(&again)
	if string(again.Bytes()) != string(data) {
		t.Fatalf("save/load/save diverged: %d vs %d bytes", len(again.Bytes()), len(data))
	}
	if b.Now() != a.Now() {
		t.Fatalf("restored clock %v, want %v", b.Now(), a.Now())
	}
}

func TestWrapEngineDelegates(t *testing.T) {
	e := NewEngine(3)
	se := WrapEngine(e)
	if se.Quantum() != 0 || se.Lanes() != 1 || se.Shards() != 1 {
		t.Fatalf("wrap shape: quantum %v lanes %d shards %d", se.Quantum(), se.Lanes(), se.Shards())
	}
	if se.Root() != e || se.Engine(0) != e {
		t.Fatal("wrap must expose the embedded engine")
	}
	fired := 0
	e.After(Millisecond, "once", func(*Engine) { fired++ })
	se.RunUntil(2 * Millisecond)
	if fired != 1 || e.Now() != 2*Millisecond || se.Now() != 2*Millisecond {
		t.Fatalf("delegation: fired=%d now=%v", fired, se.Now())
	}
	se.Stop()
	if !e.Stopped() {
		t.Fatal("Stop must delegate to the engine")
	}
}

func TestNewShardedValidation(t *testing.T) {
	for _, tc := range []struct {
		lanes, shards int
		quantum       Time
	}{
		{0, 1, Millisecond},
		{2, 0, Millisecond},
		{2, 3, Millisecond},
		{1, 1, -1},
		{2, 1, 0}, // multiple lanes require a quantum
		{2, 2, 0},
	} {
		if _, err := NewSharded(1, tc.lanes, tc.shards, tc.quantum); err == nil {
			t.Errorf("NewSharded(lanes=%d, shards=%d, quantum=%v) should fail", tc.lanes, tc.shards, tc.quantum)
		}
	}
	se, err := NewSharded(5, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if se.Quantum() != 0 {
		t.Fatal("quantum-0 construction must degenerate to legacy mode")
	}
	// Legacy-mode construction must seed exactly like NewEngine(seed).
	if g, w := se.Root().Rand().Uint64(), NewEngine(5).Rand().Uint64(); g != w {
		t.Fatalf("legacy seeding diverges from NewEngine: %d vs %d", g, w)
	}
}
