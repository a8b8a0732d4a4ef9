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
	wheelLevels     = 6
	wheelSlots      = 64
	wheelLevelShift = 3 // each level is 8× coarser

	// overflowLevel marks a timer parked on the far-future overflow list
	// (beyond the top level's horizon) rather than in a wheel bucket.
	overflowLevel = -1
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
	// wheel had already processed (a late add fires at the next boundary,
	// not a full wheel lap later). All placement math runs on fireJiff, so
	// every bucket's occupancy bit corresponds exactly to when its timers
	// fire or cascade.
	fireJiff int64
	// seq is the Add order; timers expiring in the same jiffy fire in
	// (Deadline, seq) order.
	seq uint64

	// next and prev link the timer into its bucket (or the overflow list)
	// while queued; prev is nil at the list's head. Both are nil while the
	// timer is detached.
	//snap:skip wheel placement, recomputed when the timer is re-added on load
	next, prev *SoftTimer
	// level and slot locate the timer's bucket; byte-sized, they keep a
	// timer within one cache line.
	//snap:skip wheel placement, recomputed when the timer is re-added on load
	level, slot int8
	//snap:skip wheel placement, recomputed when the timer is re-added on load
	queued bool
}

// Pending reports whether the timer is queued in a wheel.
//
//paratick:noalloc
func (t *SoftTimer) Pending() bool { return t != nil && t.queued }

// TimerWheel is a hierarchical timer wheel in the style of Linux's
// kernel/time/timer.c: 64-slot levels, each level 8× coarser than the one
// below, timers cascading downward as time advances. Granularity is one
// jiffy; timers never fire early.
//
// Each level carries a 64-bit occupancy bitmap — bit s set iff bucket s is
// non-empty — maintained on every Add/Cancel/expire. The bitmaps make the
// two hot queries cheap:
//
//   - NextExpiry locates the earliest occupied bucket per level with a
//     rotate + TrailingZeros64 and scans only those (at most one bucket per
//     level), instead of walking all 6×64 buckets.
//   - AdvanceTo jumps directly from one occupied slot boundary (or cascade
//     boundary, or overflow-migration point) to the next, so advancing an
//     idle vCPU across millions of empty jiffies costs O(occupied buckets),
//     not O(elapsed jiffies).
//
// Timers whose deadline lies beyond the top level's horizon are parked on a
// separate overflow list and migrate into the wheel once the horizon
// reaches them; this keeps the per-level invariant exact (every in-wheel
// timer's fire jiffy falls inside its bucket's current-lap span).
//
// As in Linux, where each bucket is an intrusive hlist_head, a bucket is
// the head of a doubly linked list threaded through the timers themselves,
// so Add and Cancel are O(1). The 6×64 heads live in one array that the
// wheel allocates on its first bucketed insert, its only allocation after
// construction, and keeps across Reset: most vCPUs never hold a soft
// timer, and their wheels hold no bucket storage at all.
type TimerWheel struct {
	//snap:skip configuration: the rebuilt scenario's tick rate fixes it
	jiffy sim.Time
	//snap:skip derived from jiffy at construction
	maxJiff int64 // sim.Forever / jiffy: fire jiffies at or past this mean "never"
	curJiff int64 // jiffies fully processed
	//snap:skip derived population, rebuilt as timers are re-added on load
	buckets *[wheelLevels][wheelSlots]*SoftTimer // list heads; nil until the first bucketed insert
	//snap:skip derived population, rebuilt as timers are re-added on load
	occ [wheelLevels]uint64 // bit s set iff buckets[level][s] is non-empty
	// overflow heads the unordered list of timers beyond the top level's
	// reach. It is empty in steady state.
	//snap:skip derived population, rebuilt as timers are re-added on load
	overflow *SoftTimer
	// due is the level-0 drain's scratch: the expiring bucket, sorted for
	// firing. It holds no timer between drains.
	//snap:skip scratch capacity, never simulation state
	//reset:keep scratch capacity; every drain clears what it collected
	due []*SoftTimer
	//snap:skip derived population, rebuilt as timers are re-added on load
	count int
	seq   uint64

	// nextJiff caches the earliest pending fire jiffy; nextOK marks it
	// valid. Invalidated when the holder of the minimum is canceled or
	// fires; recomputed from the bitmaps, never by a full scan.
	//snap:skip cache, recomputed from the occupancy bitmaps
	nextJiff int64
	//snap:skip cache, recomputed from the occupancy bitmaps
	nextOK bool
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
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := w.occ[lvl]
		for occ != 0 {
			s := bits.TrailingZeros64(occ)
			occ &^= 1 << uint(s)
			detachAll(&w.buckets[lvl][s])
		}
		w.occ[lvl] = 0
	}
	detachAll(&w.overflow)
	w.jiffy = jiffy
	w.maxJiff = int64(sim.Forever / jiffy)
	w.curJiff = 0
	w.count = 0
	w.seq = 0
	w.nextJiff = 0
	w.nextOK = false
}

// detachAll empties the list at *head, leaving every timer it held
// detached with nil links.
//
//paratick:noalloc
func detachAll(head **SoftTimer) {
	for t := *head; t != nil; {
		next := t.next
		t.next, t.prev = nil, nil
		t.queued = false
		t = next
	}
	*head = nil
}

// push links t in at the head of the list at *head.
//
//paratick:noalloc
func push(head **SoftTimer, t *SoftTimer) {
	t.prev = nil
	t.next = *head
	if t.next != nil {
		t.next.prev = t
	}
	*head = t
}

// unlink removes t from the list at *head and clears its links.
//
//paratick:noalloc
func unlink(head **SoftTimer, t *SoftTimer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		*head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
}

// Jiffy returns the wheel granularity.
func (w *TimerWheel) Jiffy() sim.Time { return w.jiffy }

// Len returns the number of pending timers.
func (w *TimerWheel) Len() int { return w.count }

// levelSpan returns the number of jiffies one slot covers at a level.
//
//paratick:noalloc
func levelSpan(level int) int64 {
	return 1 << (uint(level) * wheelLevelShift)
}

// levelReach returns how many jiffies ahead a level can represent.
//
//paratick:noalloc
func levelReach(level int) int64 {
	return wheelSlots * levelSpan(level)
}

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
	fj := w.deadlineJiffies(t.Deadline)
	if fj <= w.curJiff {
		// Late add: the deadline's jiffy is already processed. Fire at the
		// next boundary — never in a processed slot, which would delay the
		// timer a full wheel lap.
		fj = w.curJiff + 1
	}
	t.fireJiff = fj
	t.seq = w.seq
	w.seq++
	w.insert(t)
	if w.nextOK && fj < w.nextJiff {
		w.nextJiff = fj
	}
}

// insert places a timer by its (already fixed) fire jiffy: into the finest
// level whose reach covers it, or onto the overflow list beyond the top
// level's horizon. Used by Add, cascades, and overflow migration.
//
//paratick:noalloc
func (w *TimerWheel) insert(t *SoftTimer) {
	t.queued = true
	w.count++
	// The finest level whose reach, 2^(6+3·lvl) jiffies, exceeds delta:
	// the one holding delta's top bit, found without a loop.
	lvl := 0
	if delta := t.fireJiff - w.curJiff; delta >= wheelSlots {
		lvl = (bits.Len64(uint64(delta)) - 4) / wheelLevelShift
	}
	if lvl >= wheelLevels {
		t.level = overflowLevel
		push(&w.overflow, t)
		return
	}
	if w.buckets == nil {
		//lint:ignore A001 the bucket array, allocated once per wheel on its first bucketed insert and kept across Reset
		w.buckets = new([wheelLevels][wheelSlots]*SoftTimer)
	}
	slot := int(uint64(t.fireJiff>>(uint(lvl)*wheelLevelShift)) % wheelSlots)
	t.level, t.slot = int8(lvl), int8(slot)
	push(&w.buckets[lvl][slot], t)
	w.occ[lvl] |= 1 << uint(slot)
}

// Cancel removes a pending timer; a no-op for detached timers. Returns
// whether the timer was pending.
//
//paratick:noalloc
func (w *TimerWheel) Cancel(t *SoftTimer) bool {
	if !t.Pending() {
		return false
	}
	if t.level == overflowLevel {
		unlink(&w.overflow, t)
	} else {
		head := &w.buckets[t.level][t.slot]
		unlink(head, t)
		if *head == nil {
			w.occ[t.level] &^= 1 << uint(t.slot)
		}
	}
	t.queued = false
	w.count--
	if w.nextOK && t.fireJiff == w.nextJiff {
		w.nextOK = false
	}
	return true
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
	if !w.nextOK {
		w.nextJiff = w.earliestFireJiff()
		w.nextOK = true
	}
	return w.fireTimeOf(w.nextJiff)
}

// fireTimeOf converts a fire jiffy to simulated time; jiffies at or past
// maxJiff mean "never".
//
//paratick:noalloc
func (w *TimerWheel) fireTimeOf(fj int64) sim.Time {
	if fj >= w.maxJiff {
		return sim.Forever
	}
	return sim.Time(fj) * w.jiffy
}

// earliestFireJiff finds the minimum pending fire jiffy from the occupancy
// bitmaps: per level it inspects only the earliest occupied bucket (whose
// span is provably the earliest at that level), pruned against the best
// candidate so far, plus the overflow list.
//
//paratick:noalloc
func (w *TimerWheel) earliestFireJiff() int64 {
	best := w.maxJiff
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := w.occ[lvl]
		if occ == 0 {
			continue
		}
		span := levelSpan(lvl)
		k := nextOccupied(occ, w.curJiff/span+1)
		if k*span >= best {
			continue // the whole bucket starts at or after the best so far
		}
		for t := w.buckets[lvl][int(k%wheelSlots)]; t != nil; t = t.next {
			if t.fireJiff < best {
				best = t.fireJiff
			}
		}
	}
	for t := w.overflow; t != nil; t = t.next {
		if t.fireJiff < best {
			best = t.fireJiff
		}
	}
	return best
}

// nextOccupied returns the smallest position k ≥ from whose slot (k mod 64)
// has its bit set in occ. occ must be non-zero; the result is < from+64.
// Rotating occ right by (from mod 64) aligns slot (from+i) mod 64 with bit
// i, so TrailingZeros64 yields the offset directly.
//
//paratick:noalloc
func nextOccupied(occ uint64, from int64) int64 {
	rot := bits.RotateLeft64(occ, -int(uint64(from)%wheelSlots))
	return from + int64(bits.TrailingZeros64(rot))
}

// nextEventJiffy returns the first jiffy after curJiff at which the wheel
// has any work: an occupied level-0 slot expiring, an occupied higher-level
// bucket cascading at its slot boundary, or an overflow timer entering the
// top level's horizon. Returns maxJiff when nothing is pending.
//
//paratick:noalloc
func (w *TimerWheel) nextEventJiffy() int64 {
	next := w.maxJiff
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if w.occ[lvl] == 0 {
			continue
		}
		span := levelSpan(lvl)
		k := nextOccupied(w.occ[lvl], w.curJiff/span+1)
		if ev := k * span; ev < next {
			next = ev
		}
	}
	reach := levelReach(wheelLevels - 1)
	for t := w.overflow; t != nil; t = t.next {
		if ev := t.fireJiff - reach + 1; ev < next {
			next = ev
		}
	}
	return next
}

// AdvanceTo processes all jiffies up to now, firing expired timers in
// (Deadline, Add-order) order within each jiffy. It returns the number
// fired. Empty stretches are skipped wholesale: the clock jumps from one
// occupied boundary to the next, so a long idle gap costs only the few
// buckets actually holding timers.
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
	for w.curJiff < target {
		if w.count == 0 {
			break
		}
		next := w.nextEventJiffy()
		if next > target {
			break
		}
		w.curJiff = next
		fired += w.processJiffy(now)
	}
	if w.curJiff < target {
		w.curJiff = target
	}
	if fired > 0 {
		w.nextOK = false
	}
	return fired
}

// processJiffy runs the wheel work due at curJiff: overflow migration,
// cascades of higher levels whose slot boundary was crossed, then the
// level-0 bucket drain.
//
//paratick:noalloc
func (w *TimerWheel) processJiffy(now sim.Time) int {
	// Far-future timers whose fire jiffy is now within the top level's
	// horizon migrate into the wheel proper.
	reach := levelReach(wheelLevels - 1)
	for t := w.overflow; t != nil; {
		next := t.next
		if t.fireJiff-w.curJiff < reach {
			unlink(&w.overflow, t)
			w.count--
			w.insert(t)
		}
		t = next
	}
	// Cascade higher levels whose slot boundary we crossed. Re-placements
	// always land at a finer level (their remaining delta is below this
	// level's slot span), so the bucket being drained is never linked to.
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if w.curJiff%levelSpan(lvl) != 0 {
			break
		}
		slot := int((w.curJiff / levelSpan(lvl)) % wheelSlots)
		if w.occ[lvl]&(1<<uint(slot)) == 0 {
			continue
		}
		t := w.buckets[lvl][slot]
		w.buckets[lvl][slot] = nil
		w.occ[lvl] &^= 1 << uint(slot)
		for t != nil {
			next := t.next
			w.count--
			w.insert(t) // relinks t, overwriting both links
			t = next
		}
	}
	// Drain the level-0 bucket into the scratch slice. Every timer is
	// detached before any Fire callback runs, so a handler canceling a
	// sibling expiring in the same jiffy sees a clean no-op instead of a
	// stale link. The scratch is taken off the wheel for the drain, so a
	// callback that drains this wheel again cannot overwrite it.
	slot := int(w.curJiff % wheelSlots)
	if w.occ[0]&(1<<uint(slot)) == 0 {
		return 0
	}
	t := w.buckets[0][slot]
	w.buckets[0][slot] = nil
	w.occ[0] &^= 1 << uint(slot)
	due := w.due[:0]
	w.due = nil
	for t != nil {
		next := t.next
		t.next, t.prev = nil, nil
		t.queued = false
		w.count--
		due = append(due, t)
		t = next
	}
	// The list holds the bucket newest first; reversed, it is in Add order,
	// the common case that sortByDeadline passes through in one scan.
	for i, j := 0, len(due)-1; i < j; i, j = i+1, j-1 {
		due[i], due[j] = due[j], due[i]
	}
	sortByDeadline(due)
	fired := 0
	for _, t := range due {
		if t.fireJiff != w.curJiff {
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
		for j >= 0 && (b[j].Deadline > t.Deadline ||
			(b[j].Deadline == t.Deadline && b[j].seq > t.seq)) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = t
	}
}
