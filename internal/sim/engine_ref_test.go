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

// engineDiffUnits are the time units scripts run under, as log2 of the
// unit in ns. The engine's bucket is always 2^16 ns, so the unit sets where
// a script's traffic lands: at 2^4 ns nearly all of it shares a few buckets
// and the live batch, at 2^16 ns the unit is a bucket and op 8 fills one
// that splits, and at 2^24 ns most of it overflows to the heap and
// cascades back.
var engineDiffUnits = []uint{4, 10, 16, 24}

// runEngineDifferentialScript drives a hybrid engine and the reference
// through the same byte-coded script in time units of 2^unitShift ns,
// failing on any divergence in fire order, Cancel results, Pending, or Now.
//
// Script format: operations are consumed two bytes at a time (op, arg).
// Ops 1, 2, 7, 8 and 9 measure time in units; ops 8 and 9 in 64ths of
// one, a sub-list's span when the unit is a bucket.
//
//	op%11 == 0: schedule at now+arg%4 (same-instant / same-jiffy pileup)
//	op%11 == 1: schedule up to 85 units ahead (inside the wheel window
//	            when the unit is a bucket)
//	op%11 == 2: schedule 300 to 76,800 units ahead (far beyond the
//	            horizon when the unit is a bucket: overflow heap, cascades)
//	op%11 == 3: edge deadlines — now exactly, Forever, near-Forever, or a
//	            re-arm (cancel a prior handle, schedule a replacement)
//	op%11 == 4: cancel the handle indexed by arg (result compared)
//	op%11 == 5: Step (single dispatch)
//	op%11 == 6: StepBatch (one simulated instant)
//	op%11 == 7: RunUntil a deadline derived from arg
//	op%11 == 8: dense fill — twelve events in the unit after now's, at
//	            64ths arg%64, arg%64+5, ... (mod 64) of it plus a
//	            quarter-64th per arg/64; when the unit is a bucket, three
//	            fills make one that splits when it drains
//	op%11 == 9: RunUntil now+(arg%64)/64 unit: stopping short of a
//	            sub-list the peek already served
//	op%11 == 10: arg%4 == 0: Reset both sides (the engine must then digest
//	            like a fresh one); otherwise compare DigestState with a
//	            clone holding the reference's pending events
func runEngineDifferentialScript(t *testing.T, unitShift uint, script []byte) {
	t.Helper()
	eng := NewEngine(1)
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
			t.Fatalf("unit 2^%d op %d: fired %v, reference %v", unitShift, op, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("unit 2^%d op %d: fired %v, reference %v", unitShift, op, fired, want)
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
		clone := NewEngine(1)
		s := snap.NewReader(snap.NewDecoder(enc.Bytes()))
		clone.Snap(s)
		if err := s.Err(); err != nil {
			t.Fatalf("unit 2^%d op %d: restoring the engine scalars: %v", unitShift, op, err)
		}
		for _, ev := range ref.events {
			clone.ScheduleRestored(ev.when, ev.seq, "diff", nop)
		}
		if g, w := eng.DigestState(), clone.DigestState(); g != w {
			t.Fatalf("unit 2^%d op %d: digest %s, clone of the reference %s", unitShift, op, g, w)
		}
	}
	unit := Time(1) << unitShift
	for i := 0; i+1 < len(script); i += 2 {
		op := int(script[i] % 11)
		arg := Time(script[i+1])
		switch op {
		case 0:
			schedule(eng.Now() + arg%4)
		case 1:
			schedule(eng.Now() + arg*unit/3 + arg%5)
		case 2:
			schedule(eng.Now() + (arg+1)*unit*300)
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
						t.Fatalf("unit 2^%d op %d: re-arm Cancel(%d) = %v, reference %v", unitShift, i, id, got, want)
					}
					schedule(eng.Now() + (arg+1)*unit/2)
				}
			}
		case 4:
			if len(handles) == 0 {
				continue
			}
			id := int(arg) % len(handles)
			got, want := eng.Cancel(handles[id]), ref.cancel(id)
			if got != want {
				t.Fatalf("unit 2^%d op %d: Cancel(%d) = %v, reference %v", unitShift, i, id, got, want)
			}
		case 5:
			ok := eng.Step()
			id, wantOK := ref.step()
			if ok != wantOK {
				t.Fatalf("unit 2^%d op %d: Step = %v, reference %v", unitShift, i, ok, wantOK)
			}
			if ok {
				checkFired(i, []int{id})
			}
		case 6:
			n := eng.StepBatch()
			want := ref.stepBatch()
			if n != len(want) {
				t.Fatalf("unit 2^%d op %d: StepBatch = %d, reference %d (%v)", unitShift, i, n, len(want), want)
			}
			checkFired(i, want)
		case 7:
			deadline := eng.Now() + (arg*arg+1)*unit
			eng.RunUntil(deadline)
			checkFired(i, ref.runUntil(deadline))
		case 8:
			base := (eng.Now()>>unitShift + 1) << unitShift
			for k := Time(0); k < 12; k++ {
				schedule(base + (arg%64+5*k)%64*unit/64 + arg/64*unit/256)
			}
		case 9:
			deadline := eng.Now() + arg%64*unit/64
			eng.RunUntil(deadline)
			checkFired(i, ref.runUntil(deadline))
		case 10:
			if arg%4 != 0 {
				checkDigest(i)
			} else {
				eng.Reset(1)
				ref = &refEngine{}
				if eng.DigestState() != NewEngine(1).DigestState() {
					t.Fatalf("unit 2^%d op %d: engine after Reset digests unlike a fresh one", unitShift, i)
				}
			}
		}
		if eng.Pending() != len(ref.events) {
			t.Fatalf("unit 2^%d op %d: Pending = %d, reference %d", unitShift, i, eng.Pending(), len(ref.events))
		}
		if eng.Now() != ref.now {
			t.Fatalf("unit 2^%d op %d: Now = %v, reference %v", unitShift, i, eng.Now(), ref.now)
		}
	}
	// Drain everything — including Forever-deadline events — and compare the
	// full tail order.
	eng.RunUntil(Forever)
	checkFired(len(script), ref.runUntil(Forever))
	if eng.Pending() != 0 {
		t.Fatalf("unit 2^%d: %d events pending after full drain", unitShift, eng.Pending())
	}
}

// TestHybridEngineDifferentialRandomOps runs seeded random scripts against
// the reference in every time unit. Deterministic: failures reproduce by
// seed.
func TestHybridEngineDifferentialRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := NewRand(seed * 0x9e3779b97f4a7c15)
		script := make([]byte, 400)
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		for _, unit := range engineDiffUnits {
			t.Run(fmt.Sprintf("seed%d/shift%d", seed, unit), func(t *testing.T) {
				runEngineDifferentialScript(t, unit, script)
			})
		}
	}
}

// engineDiffScripts are named adversarial patterns: same-instant pileups,
// beyond-horizon cascades, Forever and near-Forever deadlines, cancel-heavy
// churn, re-arm chains, RunUntil jumps across idle gaps followed by earlier
// inserts (the spillBatch path), and a bucket split on drain.
var engineDiffScripts = []struct {
	name   string
	script []byte
}{
	{"same-instant-batches", []byte{
		0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 6, 0, 0, 3, 0, 3, 0, 3, 6, 0, 5, 0, 6, 0,
	}},
	{"beyond-horizon-cascade", []byte{
		2, 1, 2, 9, 2, 200, 2, 255, 1, 7, 7, 200, 7, 255, 6, 0, 7, 255,
	}},
	{"forever-and-near-forever", []byte{
		3, 1, 3, 2, 3, 6, 3, 1, 1, 9, 7, 10, 5, 0, 6, 0,
	}},
	{"cancel-heavy", []byte{
		1, 3, 1, 7, 2, 40, 0, 1, 4, 0, 4, 1, 4, 2, 4, 3, 4, 0, 1, 9, 4, 5, 7, 30,
	}},
	{"re-arm-chains", []byte{
		1, 5, 2, 50, 3, 3, 3, 7, 3, 11, 5, 0, 3, 15, 7, 40, 3, 19, 6, 0, 7, 255,
	}},
	{"idle-gap-then-earlier-insert", []byte{
		// Far future event, RunUntil jumps the clock across the idle gap,
		// then near-now inserts land before the drained batch.
		2, 100, 7, 12, 0, 1, 0, 2, 1, 4, 6, 0, 7, 200,
	}},
	{"step-mixed-tiers", []byte{
		0, 0, 1, 30, 2, 3, 2, 90, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0,
	}},
	{"split-bucket", splitBucketScript},
	{"forever-bucket-split", []byte{
		// Near Forever the window saturates and the last bucket is split
		// between wheel and heap: an event at exactly Forever parked in
		// the heap must still fire before a later one drained into the
		// batch with that bucket.
		3, 2, 6, 0, 0, 0, 3, 1, 7, 0, 3, 1,
	}},
}

// TestHybridEngineDifferentialTargeted runs every named script against the
// reference in every time unit.
func TestHybridEngineDifferentialTargeted(t *testing.T) {
	for _, sc := range engineDiffScripts {
		for _, unit := range engineDiffUnits {
			t.Run(fmt.Sprintf("%s/shift%d", sc.name, unit), func(t *testing.T) {
				runEngineDifferentialScript(t, unit, sc.script)
			})
		}
	}
}

// splitBucketScript drives a bucket that splits on drain through every
// split path when the unit is a bucket; in the other units the same
// schedules run the unsplit paths. Three dense fills put 36 events in the
// next bucket, three to a sub-span at 12 sub-spans; the first StepBatch
// drains and splits it. Then a schedule joins the batch's own sub-list,
// one links into a later sub-list, and cancels empty a sub-list and hit
// batch nodes before a digest check. A RunUntil stops short of a sub-list
// its peek served and a schedule lands in an earlier one (the batch goes
// back first); a second RunUntil ends just before the next split bucket,
// so its peek splits it ahead of now, and a schedule before it spills the
// whole bucket. The bucket splits again and the engine is Reset with
// sub-lists populated.
var splitBucketScript = []byte{
	8, 0, 8, 64, 8, 128, 6, 0,
	0, 1, 1, 1, 4, 35, 4, 11, 4, 23, 4, 12, 4, 1, 10, 1,
	9, 17, 0, 0, 5, 0, 10, 2,
	8, 0, 8, 64, 8, 128, 9, 46, 0, 0, 10, 3, 6, 0, 10, 0,
	8, 3, 8, 67, 8, 131, 6, 0, 5, 0, 4, 50, 10, 1, 7, 0,
}

// FuzzHybridEngineDifferential fuzzes the hybrid engine against the
// pure-list reference. The input is the op script, run with a bucket as
// its time unit, where every op reaches the tier it names.
func FuzzHybridEngineDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 6, 0})
	f.Add([]byte{2, 1, 2, 9, 2, 200, 1, 7, 7, 200, 6, 0})
	f.Add([]byte{3, 1, 3, 2, 3, 6, 1, 9, 7, 10, 5, 0})
	f.Add([]byte{1, 3, 2, 40, 4, 0, 4, 1, 4, 0, 7, 30})
	f.Add([]byte{2, 100, 7, 12, 0, 1, 1, 4, 6, 0, 7, 200})
	f.Add([]byte{3, 3, 3, 7, 5, 0, 3, 15, 7, 40, 6, 0})
	// Deep inserts: sixteen events pile into bucket 0 at two instants, the
	// head fires, and inserts land ahead of all of them and ahead of one
	// instant, each stepping back over every entry after its cell.
	// Cancels hit shifted entries and the fired head, then one more insert
	// moves the canceled cells along.
	deep := []byte{0, 0}
	for i := 0; i < 8; i++ {
		deep = append(deep, 0, 3, 0, 2)
	}
	deep = append(deep, 5, 0, 0, 1, 0, 2, 4, 5, 4, 12, 4, 0, 0, 1, 6, 0, 5, 0, 7, 255)
	f.Add(deep)
	for _, sc := range engineDiffScripts {
		f.Add(sc.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		runEngineDifferentialScript(t, DefaultBucketShift, script)
	})
}
