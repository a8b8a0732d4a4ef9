// Package guest models the guest operating-system kernel: per-vCPU task
// scheduling, the idle loop that drives the tick policies of internal/core,
// a Linux-style hierarchical timer wheel for soft timers (§2 of the paper:
// "the application timer is added to a dedicated data structure (e.g. the
// timer wheel in Linux)"), blocking synchronization primitives, an
// RCU-callback model, and the segment stream the hypervisor executes.
package guest

import (
	"fmt"
	"math/bits"

	"paratick/internal/sim"
)

const (
	wheelDigit  = 6               // bits of the fire jiffy that one level indexes
	wheelSlots  = 1 << wheelDigit // slots per level: one per digit value
	wheelLevels = 11              // ⌈63 / wheelDigit⌉ digits: every non-negative int64 jiffy
)

// SoftTimer is one entry in the timer wheel: an application or kernel soft
// timer serviced as a soft interrupt (§2).
type SoftTimer struct {
	// Deadline is the requested expiry; the wheel fires it at the first
	// jiffy boundary at or after the deadline (timer-wheel granularity).
	Deadline sim.Time
	// Fire runs when the timer expires.
	//snap:skip closure, re-bound by the timer's owner on restore
	Fire func(now sim.Time)

	// fireJiff is the effective fire jiffy, fixed at Add time: the deadline
	// rounded up to jiffy granularity, but never at or before the jiffy the
	// wheel had already processed (a late add fires at the next boundary).
	// Together with the wheel's clock it fixes the timer's bucket.
	fireJiff int64
	// seq is the Add order; timers expiring in the same jiffy fire in
	// (Deadline, seq) order.
	seq uint64

	// next and prev link the timer into its bucket while queued; prev is
	// nil at the list's head. Both are nil while the timer is detached.
	//snap:skip wheel placement, recomputed when the timer is re-added on load
	next, prev *SoftTimer
	//snap:skip wheel placement, recomputed when the timer is re-added on load
	queued bool
}

// Pending reports whether the timer is queued in a wheel.
//
//paratick:noalloc
func (t *SoftTimer) Pending() bool { return t != nil && t.queued }

// TimerWheel is a hierarchical timer wheel in the style of Linux's
// kernel/time/timer.c, with one jiffy of granularity: timers never fire
// early. It reads a fire jiffy as eleven 6-bit digits and files a timer by
// the highest digit in which its fire jiffy differs from the wheel's clock:
// at that level, in the slot of its own digit there. This is the radix-heap
// bucket rule (Ahuja et al. 1990) applied per digit, and it gives three
// invariants:
//
//   - Every pending timer has a bucket. A level-l timer shares every digit
//     above l with the clock and has a larger digit l, so its slot lies
//     ahead of the clock's in the current lap of level l: no far-future
//     overflow list, and the earliest occupied slot of a level is the
//     lowest bit of its 64-bit occupancy bitmap.
//   - Every level-l timer fires before any level-(l+1) timer, so the
//     earliest timer is in the lowest occupied level's lowest slot, which
//     NextExpiry scans.
//   - Moving the clock to that slot's first jiffy leaves every other timer
//     where it is. AdvanceTo does only that: it jumps there, then re-files
//     that bucket's timers against the new clock (each lands at a lower
//     level) or, at level 0, fires them. An idle stretch of any length costs
//     one step per occupied bucket on the way.
//
// As in Linux, where each bucket is an intrusive hlist_head, a bucket is
// the head of a doubly linked list threaded through the timers themselves,
// so Add and Cancel are O(1). The 11×64 heads live in one array that the
// wheel allocates on its first insert, its only allocation after
// construction, and keeps across Reset: most vCPUs never hold a soft
// timer, and their wheels hold no bucket storage at all.
type TimerWheel struct {
	//snap:skip configuration: the rebuilt scenario's tick rate fixes it
	jiffy sim.Time
	//snap:skip derived from jiffy at construction
	maxJiff int64 // sim.Forever / jiffy: fire jiffies at or past this mean "never"
	curJiff int64 // jiffies fully processed
	// count sits in the first cache line with the clock: an empty wheel,
	// nearly every vCPU's, answers AdvanceTo and NextExpiry from that line.
	//snap:skip derived population, rebuilt as timers are re-added on load
	count int
	seq   uint64
	//snap:skip derived population, rebuilt as timers are re-added on load
	buckets *[wheelLevels][wheelSlots]*SoftTimer // list heads; nil until the first insert
	//snap:skip derived population, rebuilt as timers are re-added on load
	occ [wheelLevels]uint64 // bit s set iff buckets[level][s] is non-empty
	// due is the level-0 drain's scratch: the expiring bucket, sorted for
	// firing. It holds no timer between drains, and Reset keeps its
	// capacity.
	//snap:skip scratch capacity, never simulation state
	due []*SoftTimer
}

// NewTimerWheel creates a wheel with the given jiffy duration: an empty
// shell that Reset initializes, the same path a recycled wheel takes. The
// shell is the only allocation until the first timer is added.
func NewTimerWheel(jiffy sim.Time) *TimerWheel {
	w := new(TimerWheel)
	w.Reset(jiffy)
	return w
}

// Reset returns the wheel to its just-constructed state with the given
// jiffy, detaching any still-pending timers but keeping the bucket array.
// The occupancy bitmaps locate the live buckets, so a near-empty wheel —
// the common end-of-run state — resets in O(occupied buckets).
func (w *TimerWheel) Reset(jiffy sim.Time) {
	if jiffy <= 0 {
		panic(fmt.Sprintf("guest: timer wheel jiffy must be positive, got %v", jiffy))
	}
	for lvl, occ := range w.occ {
		for ; occ != 0; occ &= occ - 1 {
			head := &w.buckets[lvl][bits.TrailingZeros64(occ)]
			for t := *head; t != nil; {
				next := t.next
				t.next, t.prev, t.queued = nil, nil, false
				t = next
			}
			*head = nil
		}
	}
	*w = TimerWheel{jiffy: jiffy, maxJiff: int64(sim.Forever / jiffy), buckets: w.buckets, due: w.due}
}

// Jiffy returns the wheel granularity.
func (w *TimerWheel) Jiffy() sim.Time { return w.jiffy }

// Len returns the number of pending timers.
func (w *TimerWheel) Len() int { return w.count }

// deadlineJiffies rounds a deadline up to jiffies. Deadlines at or near
// sim.Forever — where the round-up `deadline + jiffy - 1` would overflow and
// wrap negative — saturate to maxJiff, the "never fires" jiffy.
//
//paratick:noalloc
func (w *TimerWheel) deadlineJiffies(deadline sim.Time) int64 {
	if deadline > sim.Forever-w.jiffy+1 {
		return w.maxJiff
	}
	return int64((deadline + w.jiffy - 1) / w.jiffy)
}

// Add queues a timer. Adding an already-pending timer panics — cancel it
// first, mirroring the kernel's add_timer contract.
//
//paratick:noalloc
func (w *TimerWheel) Add(t *SoftTimer) {
	if t == nil || t.Fire == nil {
		panic("guest: Add of nil timer or timer without Fire")
	}
	if t.Pending() {
		panic("guest: Add of already-pending timer")
	}
	// A late add, whose deadline's jiffy is already processed, fires at the
	// next boundary.
	t.fireJiff = max(w.deadlineJiffies(t.Deadline), w.curJiff+1)
	t.seq = w.seq
	w.seq++
	w.insert(t)
}

// insert queues a timer whose fire jiffy is already fixed: for Add, and
// for a restored timer.
//
//paratick:noalloc
func (w *TimerWheel) insert(t *SoftTimer) {
	if w.buckets == nil {
		//lint:ignore A001 the bucket array, allocated once per wheel on its first insert and kept across Reset
		w.buckets = new([wheelLevels][wheelSlots]*SoftTimer)
	}
	t.queued = true
	w.count++
	w.file(t)
}

// bucket returns the level and slot that a fire jiffy selects against the
// clock: the highest digit in which they differ (level 0 when none does),
// and the fire jiffy's digit there.
//
//paratick:noalloc
func (w *TimerWheel) bucket(fj int64) (int, int) {
	lvl := uint(bits.Len64(uint64(fj^w.curJiff)|1)-1) / wheelDigit
	return int(lvl), int(uint64(fj) >> (lvl * wheelDigit) % wheelSlots)
}

// file links a queued timer at the head of the bucket its fire jiffy
// selects against the clock.
//
//paratick:noalloc
func (w *TimerWheel) file(t *SoftTimer) {
	lvl, slot := w.bucket(t.fireJiff)
	head := &w.buckets[lvl][slot]
	t.prev, t.next = nil, *head
	if t.next != nil {
		t.next.prev = t
	}
	*head = t
	w.occ[lvl] |= 1 << slot
}

// Cancel removes a pending timer; a no-op for detached timers. Returns
// whether the timer was pending.
//
//paratick:noalloc
func (w *TimerWheel) Cancel(t *SoftTimer) bool {
	if !t.Pending() {
		return false
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		lvl, slot := w.bucket(t.fireJiff)
		if w.buckets[lvl][slot] = t.next; t.next == nil {
			w.occ[lvl] &^= 1 << slot
		}
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev, t.queued = nil, nil, false
	w.count--
	return true
}

// first returns the lowest occupied level and its lowest occupied slot: the
// bucket holding the earliest timer. The wheel must not be empty.
//
//paratick:noalloc
func (w *TimerWheel) first() (int, int) {
	lvl := 0
	for w.occ[lvl] == 0 {
		lvl++
	}
	return lvl, bits.TrailingZeros64(w.occ[lvl])
}

// NextExpiry returns the earliest pending *fire time* — the deadline
// rounded up to wheel granularity — or sim.Forever when the wheel is empty.
// This is the guest's get_next_timer_interrupt, used by the tick policies'
// idle-entry evaluation (Fig. 1b / Fig. 3c); returning the rounded time
// matters: a wakeup timer armed at the raw deadline would fire a jiffy
// before the wheel is willing to expire the soft timer.
//
//paratick:noalloc
func (w *TimerWheel) NextExpiry() sim.Time {
	if w.count == 0 {
		return sim.Forever
	}
	lvl, slot := w.first()
	fj := w.maxJiff
	for t := w.buckets[lvl][slot]; t != nil; t = t.next {
		fj = min(fj, t.fireJiff)
	}
	if fj >= w.maxJiff {
		return sim.Forever
	}
	return sim.Time(fj) * w.jiffy
}

// AdvanceTo processes all jiffies up to now, firing expired timers in
// (Deadline, Add-order) order within each jiffy. It returns the number
// fired. The clock jumps from one occupied bucket to the next, so a long
// idle gap costs only the few buckets actually holding timers.
//
//paratick:noalloc
func (w *TimerWheel) AdvanceTo(now sim.Time) int {
	// Fire jiffies at or past maxJiff mean "never": when the jiffy does not
	// divide sim.Forever, now can reach maxJiff·jiffy, so stop one short.
	target := min(int64(now/w.jiffy), w.maxJiff-1)
	if target <= w.curJiff {
		return 0
	}
	fired := 0
	for w.count != 0 {
		// The earliest bucket's first jiffy: the clock's digits above the
		// bucket's level, its slot, then zeros.
		lvl, slot := w.first()
		shift := lvl * wheelDigit
		next := w.curJiff&^(1<<(shift+wheelDigit)-1) | int64(slot)<<shift
		if next > target {
			break
		}
		w.curJiff = next
		t := w.buckets[lvl][slot]
		w.buckets[lvl][slot] = nil
		w.occ[lvl] &^= 1 << slot
		if lvl == 0 {
			fired += w.drain(t, now)
			continue
		}
		// Cascade: each timer now differs from the clock only below lvl.
		// One that fires at the clock itself files at level 0 in the clock's
		// slot, which the next pass drains.
		for t != nil {
			next := t.next
			w.file(t)
			t = next
		}
	}
	w.curJiff = max(w.curJiff, target)
	return fired
}

// drain fires the detached level-0 bucket list t, whose timers all fire at
// the clock's jiffy, and returns how many fired. Every timer is detached
// before any Fire callback runs, so a handler canceling a sibling expiring
// in the same jiffy sees a clean no-op instead of a stale link. The scratch
// is taken off the wheel for the drain, so a callback that drains this
// wheel again cannot overwrite it.
//
//paratick:noalloc
func (w *TimerWheel) drain(t *SoftTimer, now sim.Time) int {
	jiff := w.curJiff
	due := w.due[:0]
	w.due = nil
	for t != nil {
		next := t.next
		t.next, t.prev, t.queued = nil, nil, false
		w.count--
		due = append(due, t)
		t = next
	}
	// Add files a bucket newest first, and each cascade reverses it. A
	// bucket whose head fires after its tail is reversed, so that the
	// common case, timers in (Deadline, Add order), reaches sortByDeadline
	// in order and passes in one scan instead of in O(n²) moves.
	if n := len(due); n > 1 && firesAfter(due[0], due[n-1]) {
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			due[i], due[j] = due[j], due[i]
		}
	}
	sortByDeadline(due)
	fired := 0
	for _, t := range due {
		if t.fireJiff != jiff {
			// An earlier callback of this drain re-added it, which moved
			// its fire jiffy past this one: it now waits for that (or, if
			// the callback canceled it again, for nothing).
			continue
		}
		fired++
		t.Fire(now)
	}
	clear(due)
	w.due = due[:0]
	return fired
}

// sortByDeadline orders a drained bucket by (Deadline, Add order) so same-
// jiffy expirations fire deterministically in deadline order, matching the
// AdvanceTo contract. Insertion sort: buckets are small and the common case
// (already ordered) is a single pass with zero allocations.
//
//paratick:noalloc
func sortByDeadline(b []*SoftTimer) {
	for i := 1; i < len(b); i++ {
		t := b[i]
		j := i - 1
		for j >= 0 && firesAfter(b[j], t) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = t
	}
}

// firesAfter reports whether a fires after b within one jiffy: by
// Deadline, then Add order.
//
//paratick:noalloc
func firesAfter(a, b *SoftTimer) bool {
	return a.Deadline > b.Deadline || a.Deadline == b.Deadline && a.seq > b.seq
}
