package sim

import (
	"fmt"
	"testing"

	"paratick/internal/snap"
)

// exercise drives an engine through a representative mix of activity:
// near and far-future schedules, cancels, reschedule chains, RNG
// draws, and a partial run that leaves events pending.
func exercise(e *Engine) {
	var chain Handler
	hops := 0
	chain = func(e *Engine) {
		if hops++; hops < 5 {
			e.After(Time(hops)*Microsecond, "chain", chain)
		}
	}
	e.After(10*Microsecond, "chain", chain)
	for i := 0; i < 20; i++ {
		d := Time(e.Rand().Intn(1000)) * Microsecond
		ev := e.After(d, "scatter", func(e *Engine) {})
		if i%3 == 0 {
			e.Cancel(ev)
		}
	}
	e.After(40*Millisecond, "far", func(e *Engine) {}) // a high bucket
	e.After(900*Millisecond, "farther", func(e *Engine) {})
	e.SetObserver(func(label string, when Time) {})
	e.RunUntil(500 * Microsecond)
}

// TestResetDigestMatchesFresh is the Engine.Reset correctness audit: a
// used-then-Reset engine must be byte-for-byte (digest) indistinguishable
// from a freshly constructed one, or pooled arena reuse leaks state
// between runs.
func TestResetDigestMatchesFresh(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		used := NewEngine(7)
		exercise(used)
		used.Stop() // leave a stop request pending, Reset must clear it
		used.Reset(seed)

		fresh := NewEngine(seed)
		if g, w := used.DigestState(), fresh.DigestState(); g != w {
			t.Errorf("seed %d: reset digest %s != fresh digest %s", seed, g, w)
		}

		// Behavioural check on top of the digest: identical follow-up
		// workloads must fire identically.
		exercise(used)
		exercise(fresh)
		if used.DigestState() != fresh.DigestState() {
			t.Errorf("seed %d: reset engine diverged from fresh engine after identical workload", seed)
		}
		if used.Fired() != fresh.Fired() || used.Now() != fresh.Now() {
			t.Errorf("seed %d: fired/now diverged: %d/%v vs %d/%v",
				seed, used.Fired(), used.Now(), fresh.Fired(), fresh.Now())
		}
	}
}

// TestSaveLoadRoundTrip proves that scalar restore plus per-event re-arm
// reproduces the source engine exactly: equal digests, and an identical
// dispatch tail.
func TestSaveLoadRoundTrip(t *testing.T) {
	type firing struct {
		label string
		when  Time
	}
	var srcLog, dstLog []firing

	src := NewEngine(123)
	reschedule := func(log *[]firing) Handler {
		var fn Handler
		fn = func(e *Engine) {
			*log = append(*log, firing{"tick", e.Now()})
			if e.Now() < 2*Millisecond {
				e.After(100*Microsecond, "tick", fn)
			}
		}
		return fn
	}
	src.After(50*Microsecond, "tick", reschedule(&srcLog))
	src.After(700*Microsecond, "one-shot", func(e *Engine) {
		srcLog = append(srcLog, firing{"one-shot", e.Now()})
	})
	src.After(30*Millisecond, "far", func(e *Engine) {
		srcLog = append(srcLog, firing{"far", e.Now()})
	})
	src.RunUntil(300 * Microsecond)
	prefix := len(srcLog) // firings already delivered before the snapshot

	// Snapshot: scalars via Snap, events via ForEachPending.
	var enc snap.Encoder
	if err := snap.Encode(&enc, src); err != nil {
		t.Fatal(err)
	}
	type saved struct {
		when  Time
		seq   uint64
		label string
	}
	var events []saved
	src.ForEachPending(func(when Time, seq uint64, label string) {
		events = append(events, saved{when, seq, label})
	})

	dst := NewEngine(0)
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, ev := range events {
		switch ev.label {
		case "tick":
			dst.ScheduleRestored(ev.when, ev.seq, ev.label, reschedule(&dstLog))
		case "one-shot":
			dst.ScheduleRestored(ev.when, ev.seq, ev.label, func(e *Engine) {
				dstLog = append(dstLog, firing{"one-shot", e.Now()})
			})
		case "far":
			dst.ScheduleRestored(ev.when, ev.seq, ev.label, func(e *Engine) {
				dstLog = append(dstLog, firing{"far", e.Now()})
			})
		default:
			t.Fatalf("unexpected pending label %q", ev.label)
		}
	}

	if g, w := dst.DigestState(), src.DigestState(); g != w {
		t.Fatalf("restored digest %s != source digest %s", g, w)
	}
	if dst.Now() != src.Now() || dst.Fired() != src.Fired() || dst.Pending() != src.Pending() {
		t.Fatalf("restored scalars diverge: now %v/%v fired %d/%d pending %d/%d",
			dst.Now(), src.Now(), dst.Fired(), src.Fired(), dst.Pending(), src.Pending())
	}

	// The tail must replay identically, including RNG-dependent behaviour.
	tail := func(e *Engine, log *[]firing) {
		e.After(Time(e.Rand().Intn(500))*Microsecond, "rng", func(e *Engine) {
			*log = append(*log, firing{"rng", e.Now()})
		})
		e.Run()
	}
	tail(src, &srcLog)
	tail(dst, &dstLog)
	if fmt.Sprint(srcLog[prefix:]) != fmt.Sprint(dstLog) {
		t.Fatalf("dispatch tails diverge:\n src %v\n dst %v", srcLog[prefix:], dstLog)
	}
	if src.DigestState() != dst.DigestState() {
		t.Fatal("final digests diverge")
	}
}

// TestScheduleRestoredOrdering pins that a restored event's original seq
// wins (when, seq) ties against events scheduled after the restore.
func TestScheduleRestoredOrdering(t *testing.T) {
	src := NewEngine(1)
	at := 100 * Microsecond
	var order []string
	evOld := src.At(at, "old", func(e *Engine) {})
	seqOld, _ := evOld.Seq()
	src.Cancel(evOld)

	// Simulate restore: old seq re-armed after a newer event at the same
	// instant was scheduled.
	src.At(at, "new", func(e *Engine) { order = append(order, "new") })
	src.ScheduleRestored(at, seqOld, "old", func(e *Engine) { order = append(order, "old") })
	src.Run()
	if len(order) != 2 || order[0] != "old" || order[1] != "new" {
		t.Fatalf("dispatch order = %v, want [old new]", order)
	}
}

// TestScheduleRestoredGuards pins the misuse panics.
func TestScheduleRestoredGuards(t *testing.T) {
	e := NewEngine(1)
	e.At(Microsecond, "x", func(e *Engine) {})
	e.RunUntil(2 * Microsecond)

	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("past", func() {
		e.ScheduleRestored(Microsecond, 0, "past", func(e *Engine) {})
	})
	expectPanic("future-seq", func() {
		e.ScheduleRestored(3*Microsecond, e.seq+10, "seq", func(e *Engine) {})
	})
}

// TestLoadRejectsPendingEvents pins that decoding demands a clean engine.
func TestLoadRejectsPendingEvents(t *testing.T) {
	src := NewEngine(9)
	var enc snap.Encoder
	if err := snap.Encode(&enc, src); err != nil {
		t.Fatal(err)
	}

	dst := NewEngine(9)
	dst.After(Microsecond, "pending", func(e *Engine) {})
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), dst); err == nil {
		t.Fatal("decode accepted an engine with pending events")
	}
}

// TestLoadRejectsNegativeClock pins that both directions refuse a clock
// before time zero: a lane-mode coordinator would walk quantum barriers
// from it toward the deadline without dispatching an event.
func TestLoadRejectsNegativeClock(t *testing.T) {
	src := NewEngine(9)
	src.now = -Millisecond
	var enc snap.Encoder
	if err := snap.Encode(&enc, src); err == nil {
		t.Fatal("encode accepted a negative clock")
	}
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), NewEngine(9)); err == nil {
		t.Fatal("decode accepted a negative clock")
	}
}

// TestRandStateRoundTrip pins that a decoded generator resumes the stream
// exactly.
func TestRandStateRoundTrip(t *testing.T) {
	r := NewRand(77)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	var enc snap.Encoder
	if err := snap.Encode(&enc, r); err != nil {
		t.Fatal(err)
	}
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r2 := NewRand(0)
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), r2); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if g := r2.Uint64(); g != w {
			t.Fatalf("draw %d: got %d want %d", i, g, w)
		}
	}
}
