package sim

// Checkpoint/restore support. The engine's pending events hold Go closures
// and therefore cannot be serialized; instead the snapshot layer moves the
// engine's *scalar* state here (clock, sequence counter, RNG stream, stop
// flags) and each component that owns events moves their coordinates with
// SnapEvent or SnapArmed, which re-arm them on restore in the original
// (when, seq) dispatch order. Pools (the node free list, the batch's
// capacity) and generation stamps are capacity, not state: they are
// deliberately outside the snapshot and outside DigestState.

import (
	"fmt"
	"sort"

	"paratick/internal/snap"
)

// Snap moves the engine's scalar state. Pending events are not included —
// their owners move them through SnapEvent or SnapArmed. Decoding requires
// an engine holding no pending events (freshly constructed or Reset) and
// rebases the queue on the restored clock.
func (e *Engine) Snap(s *snap.Stream) {
	s.Section("engine")
	span := uint64(spanWord)
	s.U64(&span)
	if span != spanWord {
		s.Failf("sim: snapshot span word %d, want %d", span, spanWord)
	}
	if s.Decoding() && e.Pending() != 0 {
		s.Failf("sim: restore into an engine with %d pending events (Reset it first)", e.Pending())
	}
	snap.Int(s, &e.now)
	if e.now < 0 {
		s.Failf("sim: snapshot clock %v is before time zero", e.now)
	}
	s.U64(&e.seq)
	s.U64(&e.fired)
	s.Bool(&e.stopReq)
	s.Bool(&e.stopped)
	e.rand.Snap(s)
	if s.Decoding() {
		e.rebase()
	}
}

// spanWord is the word an engine section opens with: the log2 bucket span
// of the timer wheel the radix queue replaced. The queue has no span, but
// checkpoints keep the word, so format v2 is unchanged, and a stream whose
// word differs is not one this engine wrote.
const spanWord = 16

// SnapEvent moves an optional pending event: a presence flag, then its
// coordinates through SnapArmed. A handle left unarmed by decoding is
// already dead, because decoding starts from an engine with no pending
// events.
func SnapEvent(s *snap.Stream, e *Engine, ev *Event, label string, fn Handler) {
	pending := ev.Pending()
	s.Bool(&pending)
	if pending {
		SnapArmed(s, e, ev, label, fn)
	}
}

// SnapArmed moves a pending event's (when, seq) coordinates. Decoding
// re-arms fn there through ScheduleRestored, so the restored engine
// dispatches it in exactly the pre-snapshot order. Coordinates that
// ScheduleRestored would refuse — in the past, or a seq the restored counter
// never issued — can only come from a corrupted snapshot, so they fail the
// stream instead of panicking.
func SnapArmed(s *snap.Stream, e *Engine, ev *Event, label string, fn Handler) {
	when := ev.When()
	seq, _ := ev.Seq()
	snap.Int(s, &when)
	s.U64(&seq)
	if !s.Decoding() || s.Err() != nil {
		return
	}
	if when < e.now || seq >= e.seq {
		s.Failf("sim: snapshot event %q at %v (seq %d) is outside the restored engine (now %v, seq %d)",
			label, when, seq, e.now, e.seq)
		return
	}
	*ev = e.ScheduleRestored(when, seq, label, fn)
}

// ScheduleRestored re-arms an event carried over from a snapshot at its
// original (when, seq) coordinates, so the restored engine dispatches in
// exactly the pre-snapshot order. Unlike At it does not consume a new
// sequence number; seq must predate the restored counter, and when must
// not be in the past — a snapshot can only contain future events.
//
//paratick:noalloc
func (e *Engine) ScheduleRestored(when Time, seq uint64, label string, fn Handler) Event {
	if fn == nil {
		panic("sim: nil event handler")
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: restoring %q at %v before now %v", label, when, e.now))
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: restored event %q seq %d not below engine seq %d", label, seq, e.seq))
	}
	return e.schedule(when, seq, label, fn)
}

// Seq returns the event's dispatch sequence number, the tie-break half of
// its (when, seq) coordinates. ok is false once the handle is dead.
func (ev Event) Seq() (seq uint64, ok bool) {
	if ev.live() {
		return ev.n.seq, true
	}
	return 0, false
}

// ForEachPending visits every queued event in unspecified order. It exists
// for state digests and diagnostics; fn must not schedule or cancel.
func (e *Engine) ForEachPending(fn func(when Time, seq uint64, label string)) {
	e.eachNode(func(nd *node) { fn(nd.when, nd.seq, nd.label) })
}

// DigestState returns a canonical hash of the engine's observable state:
// scalars, RNG stream, and every pending event's (when, seq, label) in
// dispatch order. Two engines with equal digests behave identically from
// here on (given handlers are re-bound equivalently). Pool contents,
// retained capacities, and node generation stamps are excluded by design —
// they affect performance, never behaviour. Digesting allocates; it is a
// test and fuzzing facility, not a hot-path one.
func (e *Engine) DigestState() snap.Digest {
	var enc snap.Encoder
	e.Snap(snap.NewWriter(&enc))
	enc.U64(uint64(e.count))
	enc.Bool(e.obs != nil)
	type pending struct {
		when  Time
		seq   uint64
		label string
	}
	evs := make([]pending, 0, e.count)
	e.ForEachPending(func(when Time, seq uint64, label string) {
		evs = append(evs, pending{when, seq, label})
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	for _, p := range evs {
		enc.I64(int64(p.when))
		enc.U64(p.seq)
		enc.String(p.label)
	}
	return snap.HashBytes(enc.Bytes())
}
