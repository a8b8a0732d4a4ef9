package sim

import (
	"fmt"
	"testing"

	"paratick/internal/snap"
)

// Differential testing of the hybrid two-tier engine (bitmap wheel +
// overflow heap + same-instant batch) against refEngine, a deliberately
// naive pure-list reference that keeps every pending event in a flat slice
// and scans for the (when, seq) minimum on demand. The reference has no
// horizon, no cascade, and no batching, so any divergence in fire order,
// Cancel results, Pending counts, or the clock isolates a bug in the hybrid
// structure. Mirrors internal/guest/wheel_ref_test.go.

// refEvent is one pending occurrence in the reference model.
type refEvent struct {
	id   int
	when Time
	seq  uint64
}

// refEngine is the pure-list reference: total order is (when, seq), exactly
// the contract Engine documents.
type refEngine struct {
	now    Time
	seq    uint64
	events []refEvent
}

func (r *refEngine) at(id int, when Time) {
	r.events = append(r.events, refEvent{id: id, when: when, seq: r.seq})
	r.seq++
}

// cancel removes the pending event with the given id, reporting whether it
// was still queued (the Cancel return-value contract).
func (r *refEngine) cancel(id int) bool {
	for i, e := range r.events {
		if e.id == id {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return true
		}
	}
	return false
}

// minIndex returns the index of the (when, seq)-minimal pending event, or
// -1 when idle.
func (r *refEngine) minIndex() int {
	best := -1
	for i, e := range r.events {
		if best < 0 || e.when < r.events[best].when ||
			(e.when == r.events[best].when && e.seq < r.events[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refEngine) pop(i int) refEvent {
	e := r.events[i]
	r.events = append(r.events[:i], r.events[i+1:]...)
	return e
}

// step fires the single earliest event, mirroring Engine.Step.
func (r *refEngine) step() (int, bool) {
	i := r.minIndex()
	if i < 0 {
		return 0, false
	}
	e := r.pop(i)
	r.now = e.when
	return e.id, true
}

// stepBatch fires every event sharing the earliest timestamp in (when, seq)
// order, mirroring Engine.StepBatch.
func (r *refEngine) stepBatch() []int {
	i := r.minIndex()
	if i < 0 {
		return nil
	}
	t0 := r.events[i].when
	var ids []int
	for {
		i := r.minIndex()
		if i < 0 || r.events[i].when != t0 {
			break
		}
		e := r.pop(i)
		r.now = t0
		ids = append(ids, e.id)
	}
	return ids
}

// runUntil fires everything ≤ deadline then advances the clock, mirroring
// Engine.RunUntil.
func (r *refEngine) runUntil(deadline Time) []int {
	var ids []int
	for {
		i := r.minIndex()
		if i < 0 || r.events[i].when > deadline {
			break
		}
		e := r.pop(i)
		r.now = e.when
		ids = append(ids, e.id)
	}
	if r.now < deadline {
		r.now = deadline
	}
	return ids
}

// engineDiffShifts are the wheel horizons scripts run under: a tiny window
// (almost everything overflows to the heap and cascades back), the default
// neighborhood, and a huge window (almost everything lands in the wheel).
var engineDiffShifts = []uint{4, 10, 16, 24}

// runEngineDifferentialScript drives a hybrid engine and the reference
// through the same byte-coded script under the given horizon shift,
// failing on any divergence in fire order, Cancel results, Pending, or Now.
//
// Script format: operations are consumed two bytes at a time (op, arg).
// Ops 8 and 9 measure time in 64ths of a bucket, a sub-list's span at
// shift 6 and above, so one script drives a split bucket at every shift.
//
//	op%11 == 0: schedule at now+arg%4 (same-instant / same-jiffy pileup)
//	op%11 == 1: schedule inside the wheel window
//	op%11 == 2: schedule far beyond the horizon (overflow heap, cascades)
//	op%11 == 3: edge deadlines — now exactly, Forever, near-Forever, or a
//	            re-arm (cancel a prior handle, schedule a replacement)
//	op%11 == 4: cancel the handle indexed by arg (result compared)
//	op%11 == 5: Step (single dispatch)
//	op%11 == 6: StepBatch (one simulated instant)
//	op%11 == 7: RunUntil a deadline derived from arg
//	op%11 == 8: dense fill — twelve events in the bucket after now's, at
//	            64ths arg%64, arg%64+5, ... (mod 64) of it plus a
//	            quarter-64th per arg/64; three fills make a bucket that
//	            splits when it drains
//	op%11 == 9: RunUntil now+(arg%64)/64 bucket: stopping short of a
//	            sub-list the peek already served
//	op%11 == 10: arg%4 == 0: Reset both sides (the engine must then digest
//	            like a fresh one); otherwise compare DigestState with a
//	            clone holding the reference's pending events
func runEngineDifferentialScript(t *testing.T, shift uint, script []byte) {
	t.Helper()
	eng := NewEngineShift(1, shift)
	ref := &refEngine{}
	var (
		handles []Event
		fired   []int
	)
	// schedule registers one event on both sides under the next integer id.
	// Handlers append their id to fired, giving the observable order.
	schedule := func(when Time) {
		if when < eng.Now() {
			when = eng.Now() // At panics on the past; the script never asks for it
		}
		id := len(handles)
		handles = append(handles, eng.At(when, "diff", func(*Engine) {
			fired = append(fired, id)
		}))
		ref.at(id, when)
	}
	checkFired := func(op int, want []int) {
		t.Helper()
		if len(fired) != len(want) {
			t.Fatalf("shift %d op %d: fired %v, reference %v", shift, op, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("shift %d op %d: fired %v, reference %v", shift, op, fired, want)
			}
		}
		fired = fired[:0]
	}
	nop := func(*Engine) {}
	// checkDigest compares the engine's digest with a clone's: the engine's
	// scalars moved through Snap, then the reference's pending events
	// restored at their coordinates, so the clone's queue is laid out
	// afresh (no batch, no split bucket) whatever the engine's is.
	checkDigest := func(op int) {
		t.Helper()
		var enc snap.Encoder
		eng.Snap(snap.NewWriter(&enc))
		clone := NewEngineShift(1, shift)
		s := snap.NewReader(snap.NewDecoder(enc.Bytes()))
		clone.Snap(s)
		if err := s.Err(); err != nil {
			t.Fatalf("shift %d op %d: restoring the engine scalars: %v", shift, op, err)
		}
		for _, ev := range ref.events {
			clone.ScheduleRestored(ev.when, ev.seq, "diff", nop)
		}
		if g, w := eng.DigestState(), clone.DigestState(); g != w {
			t.Fatalf("shift %d op %d: digest %s, clone of the reference %s", shift, op, g, w)
		}
	}
	bucket := Time(1) << shift
	for i := 0; i+1 < len(script); i += 2 {
		op := int(script[i] % 11)
		arg := Time(script[i+1])
		switch op {
		case 0:
			schedule(eng.Now() + arg%4)
		case 1:
			schedule(eng.Now() + arg*bucket/3 + arg%5)
		case 2:
			schedule(eng.Now() + (arg+1)*bucket*300)
		case 3:
			switch arg % 4 {
			case 0:
				schedule(eng.Now())
			case 1:
				schedule(Forever)
			case 2:
				schedule(Forever - arg)
			case 3: // re-arm: cancel a live-or-dead handle, then reschedule
				if len(handles) > 0 {
					id := int(arg) % len(handles)
					got, want := eng.Cancel(handles[id]), ref.cancel(id)
					if got != want {
						t.Fatalf("shift %d op %d: re-arm Cancel(%d) = %v, reference %v", shift, i, id, got, want)
					}
					schedule(eng.Now() + (arg+1)*bucket/2)
				}
			}
		case 4:
			if len(handles) == 0 {
				continue
			}
			id := int(arg) % len(handles)
			got, want := eng.Cancel(handles[id]), ref.cancel(id)
			if got != want {
				t.Fatalf("shift %d op %d: Cancel(%d) = %v, reference %v", shift, i, id, got, want)
			}
		case 5:
			ok := eng.Step()
			id, wantOK := ref.step()
			if ok != wantOK {
				t.Fatalf("shift %d op %d: Step = %v, reference %v", shift, i, ok, wantOK)
			}
			if ok {
				checkFired(i, []int{id})
			}
		case 6:
			n := eng.StepBatch()
			want := ref.stepBatch()
			if n != len(want) {
				t.Fatalf("shift %d op %d: StepBatch = %d, reference %d (%v)", shift, i, n, len(want), want)
			}
			checkFired(i, want)
		case 7:
			deadline := eng.Now() + (arg*arg+1)*bucket
			eng.RunUntil(deadline)
			checkFired(i, ref.runUntil(deadline))
		case 8:
			base := (eng.Now()>>shift + 1) << shift
			for k := Time(0); k < 12; k++ {
				schedule(base + (arg%64+5*k)%64*bucket/64 + arg/64*bucket/256)
			}
		case 9:
			deadline := eng.Now() + arg%64*bucket/64
			eng.RunUntil(deadline)
			checkFired(i, ref.runUntil(deadline))
		case 10:
			if arg%4 != 0 {
				checkDigest(i)
			} else {
				eng.Reset(1)
				ref = &refEngine{}
				if eng.DigestState() != NewEngineShift(1, shift).DigestState() {
					t.Fatalf("shift %d op %d: engine after Reset digests unlike a fresh one", shift, i)
				}
			}
		}
		if eng.Pending() != len(ref.events) {
			t.Fatalf("shift %d op %d: Pending = %d, reference %d", shift, i, eng.Pending(), len(ref.events))
		}
		if eng.Now() != ref.now {
			t.Fatalf("shift %d op %d: Now = %v, reference %v", shift, i, eng.Now(), ref.now)
		}
	}
	// Drain everything — including Forever-deadline events — and compare the
	// full tail order.
	eng.RunUntil(Forever)
	checkFired(len(script), ref.runUntil(Forever))
	if eng.Pending() != 0 {
		t.Fatalf("shift %d: %d events pending after full drain", shift, eng.Pending())
	}
}

// TestHybridEngineDifferentialRandomOps runs seeded random scripts against
// the reference under every horizon shift. Deterministic: failures
// reproduce by seed.
func TestHybridEngineDifferentialRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := NewRand(seed * 0x9e3779b97f4a7c15)
		script := make([]byte, 400)
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		for _, shift := range engineDiffShifts {
			t.Run(fmt.Sprintf("seed%d/shift%d", seed, shift), func(t *testing.T) {
				runEngineDifferentialScript(t, shift, script)
			})
		}
	}
}

// TestHybridEngineDifferentialTargeted exercises named adversarial
// patterns: same-instant pileups, beyond-horizon cascades, Forever and
// near-Forever deadlines, cancel-heavy churn, re-arm chains, and RunUntil
// jumps across idle gaps followed by earlier inserts (the spillBatch path).
func TestHybridEngineDifferentialTargeted(t *testing.T) {
	scripts := map[string][]byte{
		"same-instant-batches": {
			0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 6, 0, 0, 3, 0, 3, 0, 3, 6, 0, 5, 0, 6, 0,
		},
		"beyond-horizon-cascade": {
			2, 1, 2, 9, 2, 200, 2, 255, 1, 7, 7, 200, 7, 255, 6, 0, 7, 255,
		},
		"forever-and-near-forever": {
			3, 1, 3, 2, 3, 6, 3, 1, 1, 9, 7, 10, 5, 0, 6, 0,
		},
		"cancel-heavy": {
			1, 3, 1, 7, 2, 40, 0, 1, 4, 0, 4, 1, 4, 2, 4, 3, 4, 0, 1, 9, 4, 5, 7, 30,
		},
		"re-arm-chains": {
			1, 5, 2, 50, 3, 3, 3, 7, 3, 11, 5, 0, 3, 15, 7, 40, 3, 19, 6, 0, 7, 255,
		},
		"idle-gap-then-earlier-insert": {
			// Far future event, RunUntil jumps the clock across the idle gap,
			// then near-now inserts land before the drained batch.
			2, 100, 7, 12, 0, 1, 0, 2, 1, 4, 6, 0, 7, 200,
		},
		"step-mixed-tiers": {
			0, 0, 1, 30, 2, 3, 2, 90, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0,
		},
		"split-bucket": splitBucketScript,
		"forever-bucket-split": {
			// Near Forever the window saturates and the last bucket is split
			// between wheel and heap: an event at exactly Forever parked in
			// the heap must still fire before a later one drained into the
			// batch with that bucket.
			3, 2, 6, 0, 0, 0, 3, 1, 7, 0, 3, 1,
		},
	}
	for name, script := range scripts {
		for _, shift := range engineDiffShifts {
			t.Run(fmt.Sprintf("%s/shift%d", name, shift), func(t *testing.T) {
				runEngineDifferentialScript(t, shift, script)
			})
		}
	}
}

// splitBucketScript drives a bucket that splits on drain through every
// split path. Three dense fills put 36 events in the next bucket, three to
// a sub-span at 12 sub-spans; the first StepBatch drains and splits it.
// Then a schedule joins the batch's own sub-list, one links into a later
// sub-list, and cancels empty a sub-list and hit batch nodes (at shift 16
// the batch holds a 1 µs sub-span, at shift 4 a single instant, so which
// of ids 12 and 1 sits in the batch varies), before a digest check. A
// RunUntil stops short of a sub-list its peek served and a schedule lands
// in an earlier one (the batch goes back first); a second RunUntil ends
// just before the next split bucket, so its peek splits it ahead of now,
// and a schedule before it spills the whole bucket. The bucket splits
// again and the engine is Reset with sub-lists populated.
var splitBucketScript = []byte{
	8, 0, 8, 64, 8, 128, 6, 0,
	0, 1, 1, 1, 4, 35, 4, 11, 4, 23, 4, 12, 4, 1, 10, 1,
	9, 17, 0, 0, 5, 0, 10, 2,
	8, 0, 8, 64, 8, 128, 9, 46, 0, 0, 10, 3, 6, 0, 10, 0,
	8, 3, 8, 67, 8, 131, 6, 0, 5, 0, 4, 50, 10, 1, 7, 0,
}

// FuzzHybridEngineDifferential fuzzes the hybrid engine against the
// pure-list reference. The first byte selects the horizon shift so the
// fuzzer explores tiny and huge wheel windows; the rest is the op script.
func FuzzHybridEngineDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 6, 0})
	f.Add([]byte{1, 2, 1, 2, 9, 2, 200, 1, 7, 7, 200, 6, 0})
	f.Add([]byte{2, 3, 1, 3, 2, 3, 6, 1, 9, 7, 10, 5, 0})
	f.Add([]byte{3, 1, 3, 2, 40, 4, 0, 4, 1, 4, 0, 7, 30})
	f.Add([]byte{0, 2, 100, 7, 12, 0, 1, 1, 4, 6, 0, 7, 200})
	f.Add([]byte{1, 3, 3, 3, 7, 5, 0, 3, 15, 7, 40, 6, 0})
	// Deep inserts, one seed per shift: sixteen events pile into bucket 0
	// at two instants, the head fires, and inserts land ahead of all of
	// them and ahead of one instant (both past the probe, so a binary
	// search and block move). Cancels hit shifted entries and the fired
	// head, then one more insert moves the canceled cells along.
	deep := []byte{0, 0}
	for i := 0; i < 8; i++ {
		deep = append(deep, 0, 3, 0, 2)
	}
	deep = append(deep, 5, 0, 0, 1, 0, 2, 4, 5, 4, 12, 4, 0, 0, 1, 6, 0, 5, 0, 7, 255)
	for shift := byte(0); shift < byte(len(engineDiffShifts)); shift++ {
		f.Add(append([]byte{shift}, deep...))
		f.Add(append([]byte{shift}, splitBucketScript...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := engineDiffShifts[int(data[0])%len(engineDiffShifts)]
		script := data[1:]
		if len(script) > 2048 {
			script = script[:2048]
		}
		runEngineDifferentialScript(t, shift, script)
	})
}
