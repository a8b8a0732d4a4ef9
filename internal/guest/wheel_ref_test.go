package guest

import (
	"sort"
	"testing"

	"paratick/internal/sim"
)

// This file holds the differential harness: a naive sorted-list reference
// model of the timer wheel's contract, and a byte-script interpreter that
// drives the real wheel and the model side by side, comparing fire
// sequences, counts, and NextExpiry after every operation. The fuzz target
// FuzzTimerWheelDifferential and the deterministic TestWheelDifferential*
// tests both run scripts through it.

// refEntry is one pending timer in the reference model.
type refEntry struct {
	id       int
	deadline sim.Time
	fireJiff int64
	seq      uint64
}

// refWheel is the reference model: a flat list consulted by linear scan and
// sorted on demand. It implements the documented TimerWheel contract — fire
// at the first jiffy boundary at or after the deadline (never at or before
// the jiffy already processed), fire in (Deadline, Add-order) order within
// a jiffy, NextExpiry is the minimum pending fire time — with none of the
// wheel's structure, so structural bugs cannot be shared.
type refWheel struct {
	jiffy   sim.Time
	maxJiff int64
	cur     int64
	seq     uint64
	entries []refEntry
}

func newRefWheel(jiffy sim.Time) *refWheel {
	return &refWheel{jiffy: jiffy, maxJiff: int64(sim.Forever / jiffy)}
}

func (r *refWheel) add(id int, deadline sim.Time) {
	fj := r.maxJiff
	if deadline <= sim.Forever-r.jiffy+1 {
		fj = int64((deadline + r.jiffy - 1) / r.jiffy)
	}
	if fj <= r.cur {
		fj = r.cur + 1
	}
	r.entries = append(r.entries, refEntry{id: id, deadline: deadline, fireJiff: fj, seq: r.seq})
	r.seq++
}

func (r *refWheel) cancel(id int) bool {
	for i, e := range r.entries {
		if e.id == id {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refWheel) len() int { return len(r.entries) }

func (r *refWheel) nextExpiry() sim.Time {
	if len(r.entries) == 0 {
		return sim.Forever
	}
	best := r.maxJiff
	for _, e := range r.entries {
		if e.fireJiff < best {
			best = e.fireJiff
		}
	}
	if best >= r.maxJiff {
		return sim.Forever
	}
	return sim.Time(best) * r.jiffy
}

// advance consumes every entry due by now and returns their ids in the
// order the wheel must fire them: by jiffy, then (Deadline, Add order).
func (r *refWheel) advance(now sim.Time) []int {
	target := int64(now / r.jiffy)
	if target <= r.cur {
		return nil
	}
	r.cur = target
	var due []refEntry
	keep := r.entries[:0]
	for _, e := range r.entries {
		if e.fireJiff <= target {
			due = append(due, e)
		} else {
			keep = append(keep, e)
		}
	}
	r.entries = keep
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i], due[j]
		if a.fireJiff != b.fireJiff {
			return a.fireJiff < b.fireJiff
		}
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
		return a.seq < b.seq
	})
	ids := make([]int, len(due))
	for i, e := range due {
		ids[i] = e.id
	}
	return ids
}

// diffTimer pairs a real SoftTimer with its reference identity.
type diffTimer struct {
	id int
	tm SoftTimer
}

// runDifferentialScript interprets a byte script as wheel operations and
// checks the real wheel against the reference model after every step.
// Opcodes (byte % 8): 0,1,2 add at increasing deadline scales (the largest
// up to 2^24 jiffies out), 3 add an edge-case deadline (past, now,
// near-Forever, Forever), 4 cancel a random timer, 5,6,7 advance at
// increasing step scales. The operand is the following byte. Deadlines and
// steps scale with the jiffy, except the near-Forever edge cases, which a
// 1 ns jiffy files at the wheel's top levels.
func runDifferentialScript(t *testing.T, jiffy sim.Time, script []byte) {
	w := NewTimerWheel(jiffy)
	ref := newRefWheel(jiffy)
	var (
		timers []*diffTimer
		fired  []int
		now    sim.Time
	)
	addTimer := func(deadline sim.Time) {
		dt := &diffTimer{id: len(timers)}
		dt.tm = SoftTimer{Deadline: deadline, Fire: func(at sim.Time) {
			if at != now {
				t.Fatalf("timer %d fired with now=%v, want %v", dt.id, at, now)
			}
			fired = append(fired, dt.id)
		}}
		timers = append(timers, dt)
		w.Add(&dt.tm)
		ref.add(dt.id, deadline)
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, int64(script[i+1])
		switch op {
		case 0: // short add: within level 0/1
			addTimer(now + sim.Time(arg+1)*jiffy)
		case 1: // medium add: spans middle levels, off jiffy boundaries
			addTimer(now + sim.Time(arg*797+13)*jiffy + sim.Time(arg%7)*jiffy/5)
		case 2: // huge add: up to 2^24 jiffies out, levels 2 to 4
			addTimer(now + sim.Time(arg*65536+1)*jiffy)
		case 3: // edge-case deadlines
			switch arg % 4 {
			case 0:
				addTimer(now - sim.Time(arg)*jiffy) // at or before now
			case 1:
				addTimer(0)
			case 2:
				addTimer(sim.Forever)
			case 3:
				addTimer(sim.Forever - sim.Time(arg)) // near-Forever round-up overflow zone
			}
		case 4: // cancel a random timer (possibly already fired)
			if len(timers) == 0 {
				continue
			}
			dt := timers[int(arg)%len(timers)]
			got := w.Cancel(&dt.tm)
			want := ref.cancel(dt.id)
			if got != want {
				t.Fatalf("op %d: Cancel(%d) = %v, reference says %v", i, dt.id, got, want)
			}
		case 5: // small advance, often sub-jiffy
			now += sim.Time(arg) * jiffy / 3
		case 6: // medium advance: crosses cascade boundaries
			now += sim.Time(arg*31+1) * jiffy
		case 7: // huge advance: sparse-idle fast-forward territory
			now += sim.Time(arg*100000+1) * jiffy
		}
		if op >= 5 {
			fired = fired[:0]
			n := w.AdvanceTo(now)
			want := ref.advance(now)
			if n != len(want) {
				t.Fatalf("op %d: AdvanceTo(%v) fired %d, reference fired %d", i, now, n, len(want))
			}
			if len(fired) != len(want) {
				t.Fatalf("op %d: observed %d fires, reference %d", i, len(fired), len(want))
			}
			for j := range want {
				if fired[j] != want[j] {
					t.Fatalf("op %d: fire order %v, reference %v", i, fired, want)
				}
			}
		}
		if w.Len() != ref.len() {
			t.Fatalf("op %d: wheel Len %d, reference %d", i, w.Len(), ref.len())
		}
		if got, want := w.NextExpiry(), ref.nextExpiry(); got != want {
			t.Fatalf("op %d: NextExpiry %v, reference %v (now %v)", i, got, want, now)
		}
	}
	// Drain 2^21 + 1000 jiffies further and verify the survivors agree one
	// final time.
	fired = fired[:0]
	now += sim.Time(1<<21+1000) * jiffy
	n := w.AdvanceTo(now)
	want := ref.advance(now)
	if n != len(want) || len(fired) != len(want) {
		t.Fatalf("drain: wheel fired %d (observed %d), reference %d", n, len(fired), len(want))
	}
	for j := range want {
		if fired[j] != want[j] {
			t.Fatalf("drain: fire order %v, reference %v", fired, want)
		}
	}
	if w.Len() != ref.len() {
		t.Fatalf("drain: wheel Len %d, reference %d", w.Len(), ref.len())
	}
}

// differentialJiffies are the jiffies the differential harness runs every
// script at: the 1 ns jiffy of a 1 GHz tick, whose near-Forever fire jiffies
// reach the top level; a prime jiffy, which divides neither sim.Forever nor
// any decimal step; and the 1 ms jiffy of a 1000 Hz tick.
var differentialJiffies = []sim.Time{sim.Nanosecond, 999_983, sim.Millisecond}

// TestWheelDifferentialRandomOps drives the differential harness from
// seeded random scripts so the reference-model comparison runs on every
// plain `go test`, not only under fuzzing.
func TestWheelDifferentialRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		script := make([]byte, 400)
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		for _, jiffy := range differentialJiffies {
			runDifferentialScript(t, jiffy, script)
		}
	}
}

// TestWheelDifferentialTargeted pins the regression cases the satellites
// call out: Forever and near-Forever deadlines (round-up overflow), adds at
// or before now, same-jiffy deadline ordering, and a beyond-horizon
// deadline crossed by one huge advance.
func TestWheelDifferentialTargeted(t *testing.T) {
	scripts := map[string][]byte{
		"forever-and-past":  {3, 2, 3, 0, 3, 1, 3, 7, 6, 50, 7, 255},
		"same-jiffy-order":  {1, 9, 1, 9, 1, 9, 0, 3, 0, 3, 6, 40, 7, 200},
		"beyond-horizon":    {2, 255, 2, 128, 0, 1, 7, 255, 7, 255, 7, 255},
		"cancel-heavy":      {0, 10, 0, 20, 4, 0, 4, 0, 4, 1, 5, 90, 0, 5, 4, 3, 6, 10},
		"boundary-cascades": {1, 64, 1, 65, 1, 127, 6, 31, 6, 31, 6, 31, 6, 31},
	}
	for name, script := range scripts {
		script := script
		t.Run(name, func(t *testing.T) {
			for _, jiffy := range differentialJiffies {
				runDifferentialScript(t, jiffy, script)
			}
		})
	}
}
