package sim

import (
	"fmt"
	"math/bits"
)

// Handler is the callback type for scheduled events. It receives the engine
// so that handlers can schedule follow-up events without capturing it.
type Handler func(e *Engine)

// Node location discriminators. A node is always in exactly one place: a
// bucket list (loc is the bucket, 0 to radixBuckets-1), the batch
// (locBatch), or detached (fired, canceled or free).
const (
	locDetached int32 = -1
	locBatch    int32 = -2
)

// node is the pooled representation of a scheduled event. Nodes are recycled
// through the engine's free list; the generation counter invalidates stale
// Event handles across reuse. A bucket node is linked into its bucket's list
// by next and prev (prev is nil at the head). A batch node is not linked —
// Cancel finds its cell by binary search on (when, seq) — and its links
// mean nothing until release clears them.
type node struct {
	when       Time
	seq        uint64
	loc        int32
	gen        uint32 // bumped on release; a handle with an older gen is dead
	next, prev *node
	fn         Handler
	label      string
}

// Event is a handle to a scheduled occurrence, created by Engine.At /
// Engine.After. The zero value is an invalid handle. Handles are
// generation-stamped: once the event fires or is canceled the handle goes
// dead, and Cancel/Pending on a dead handle are safe no-ops even after the
// engine has recycled the underlying storage for a new event.
type Event struct {
	n   *node
	gen uint32
}

// live reports whether the handle still refers to a queued event.
//
//paratick:noalloc
func (ev Event) live() bool {
	return ev.n != nil && ev.n.gen == ev.gen && ev.n.loc != locDetached
}

// When returns the time the event is scheduled to fire, or 0 once the
// handle is dead (fired or canceled).
func (ev Event) When() Time {
	if ev.live() {
		return ev.n.when
	}
	return 0
}

// Label returns the diagnostic label assigned at scheduling time, or ""
// once the handle is dead.
func (ev Event) Label() string {
	if ev.live() {
		return ev.n.label
	}
	return ""
}

// Pending reports whether the event is still queued (not fired, not
// canceled).
func (ev Event) Pending() bool { return ev.live() }

// batchEnt is one batch slot: the (when, seq) sort key copied out of the
// node so the hot dispatch/insert paths stay in one contiguous array.
type batchEnt struct {
	when Time
	seq  uint64
	nd   *node
}

// entLess orders batch entries by (when, seq). The seq tie-break makes
// event ordering — and therefore entire simulations — deterministic.
//
//paratick:noalloc
func entLess(a, b batchEnt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Radix queue geometry.
const (
	// radixBuckets is one bucket for keys equal to last plus one per bit
	// a key can first differ from it in; keys are non-negative, so 63.
	radixBuckets = 64

	// drainBucket and drainMax bound what a refill drains whole: bucket
	// b's keys lie within 2^b ns above last, so a drained batch spans at
	// most 2^17 ns (~131µs) and, bucket 0 (one instant) aside, holds at
	// most drainMax nodes. A wider or longer bucket is redistributed first.
	drainBucket = 17
	drainMax    = 32
)

// Engine is the discrete-event simulation core: a clock plus an event queue.
// It is single-threaded by design; determinism is a core requirement for the
// reproduction experiments, so no goroutines or wall-clock time are involved.
// (Independent engines may run concurrently — the parallel experiment runner
// relies on each run owning a private Engine.)
//
// The queue is a radix heap keyed on when (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990), which needs monotone keys: At never schedules before now, and
// no pending key is below last, the key the queue was last rebased on. It
// keeps three invariants:
//
//   - A pending node outside the batch sits in bucket
//     bits.Len64(when ^ last), the highest bit where its key differs from
//     last, and last never exceeds that key or now. Buckets are intrusive
//     doubly linked lists with one occupancy word, so the lowest occupied
//     bucket — which holds the earliest keys — is one bit scan away, and
//     filing and canceling are O(1).
//   - The batch, an array sorted by (when, seq), holds every pending key
//     up to batchEnd.
//   - Every bucket key is above batchEnd.
//
// A schedule at or below batchEnd steps back from the batch's tail into
// place; any other is linked into its bucket. When the batch runs dry the
// lowest bucket either drains whole into it, raising batchEnd to the
// bucket's upper bound, or — if it is too wide or too long — is
// redistributed around its minimum, every node moving to a strictly lower
// bucket, so a node moves at most once per key bit. Fired or canceled nodes
// return to a free list, so steady-state schedule→fire→reschedule cycles
// allocate nothing.
//
// Dispatch follows the exact (when, seq) total order of a pure-heap engine;
// engine_ref_test.go proves the equivalence differentially.
type Engine struct {
	now Time

	// The queue population is never encoded: owners re-arm every pending
	// event through ScheduleRestored on load, which rebuilds the buckets
	// and batch below from scratch.
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	last Time
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	occ uint64
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	buckets [radixBuckets]*node // list heads, newest first

	// Entries carry the sort key inline so comparisons, binary searches and
	// the dispatch loop's same-instant scan never dereference nodes;
	// dispatched and canceled entries keep their key but drop the node
	// (nd == nil), so the live region batch[batchPos:] stays key-sorted.
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	batch []batchEnt
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	batchPos int
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	batchEnd Time

	//snap:skip node pool, capacity only — never simulation state
	free []*node

	seq   uint64
	fired uint64
	//snap:skip derived: recounted as owners re-arm events on load
	count   int
	rand    *Rand
	stopReq bool // Stop() pending, not yet observed by a run
	stopped bool // most recent run was halted by Stop
	//snap:skip observer hook, reattached by the harness after restore
	obs Observer
}

// Observer receives one callback per dispatched event, immediately before
// its handler runs: the event's label and fire time. It is the engine's
// profiling hook — trace tools aggregate label counts or export timelines
// from it. The callback path allocates nothing, and a nil observer costs one
// predicted branch on the dispatch path, preserving the engine's 0 allocs/op
// steady state.
type Observer func(label string, when Time)

// NewEngine returns an engine at time zero with an RNG seeded by seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rand: new(Rand)}
	e.Reset(seed)
	return e
}

// Reset returns the engine to time zero with a fresh RNG stream, releasing
// every pending event while keeping the node pool and batch capacity. It is
// the only writer of the engine's per-run state: NewEngine builds a shell
// and calls it, and the experiment layer's per-worker arenas call it to
// reuse one engine across repeated runs.
func (e *Engine) Reset(seed uint64) {
	e.eachNode(e.release)
	e.buckets = [radixBuckets]*node{}
	e.occ = 0
	clear(e.batch)
	e.batch = e.batch[:0]
	e.batchPos = 0

	e.now = 0
	e.rebase()
	e.seq = 0
	e.fired = 0
	e.count = 0
	e.stopReq = false
	e.stopped = false
	e.obs = nil
	e.rand.Reseed(seed)
}

// rebase puts an engine with no pending event on its clock: last moves to
// now, and the batch covers nothing a schedule could reach.
func (e *Engine) rebase() {
	e.last = e.now
	e.batchEnd = e.now - 1
}

// eachNode calls fn on every pending node: the bucket lists, then the live
// batch. fn may release the node it is given, but must not schedule or
// cancel.
//
//paratick:noalloc
func (e *Engine) eachNode(fn func(*node)) {
	for occ := e.occ; occ != 0; occ &= occ - 1 {
		for nd := e.buckets[bits.TrailingZeros64(occ)]; nd != nil; {
			next := nd.next // read before fn can clear it
			fn(nd)
			nd = next
		}
	}
	for _, ent := range e.batch[e.batchPos:] {
		if ent.nd != nil {
			fn(ent.nd)
		}
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rand }

// SetObserver installs (or, with nil, removes) the dispatch observer. The
// observer must not schedule or cancel events; it is a passive measurement
// tap.
func (e *Engine) SetObserver(obs Observer) { e.obs = obs }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.count }

// Fired returns the total number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// eventSlab is how many nodes are allocated at once when the free list runs
// dry; one allocation amortizes over a slab's worth of schedules.
const eventSlab = 64

// acquire returns a node from the free list, refilling it a slab at a time.
//
//paratick:noalloc
func (e *Engine) acquire() *node {
	if n := len(e.free); n > 0 {
		nd := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return nd
	}
	//lint:ignore A001 slab refill: one allocation amortized over eventSlab schedules, absent in steady state
	slab := make([]node, eventSlab)
	for i := 1; i < eventSlab; i++ {
		slab[i].loc = locDetached
		e.free = append(e.free, &slab[i])
	}
	slab[0].loc = locDetached
	return &slab[0]
}

// release recycles a fired or canceled node. Clearing fn and label drops
// closure and string references so the pool never retains guest state.
//
//paratick:noalloc
func (e *Engine) release(nd *node) {
	nd.gen++
	nd.loc = locDetached
	nd.next, nd.prev = nil, nil
	nd.fn = nil
	nd.label = ""
	e.free = append(e.free, nd)
}

// --- Buckets -----------------------------------------------------------

// bucketAdd links nd in at the head of bucket bits.Len64(when ^ last), so
// a bucket holds its nodes newest first, and marks the bucket occupied.
// Callers guarantee nd.when >= e.last.
//
//paratick:noalloc
func (e *Engine) bucketAdd(nd *node) {
	b := bits.Len64(uint64(nd.when ^ e.last))
	head := &e.buckets[b]
	nd.loc = int32(b)
	nd.prev = nil
	nd.next = *head
	if nd.next != nil {
		nd.next.prev = nd
	}
	*head = nd
	e.occ |= 1 << uint(b)
}

// bucketRemove unlinks nd from its bucket and detaches it, clearing the
// occupancy bit when the bucket empties.
//
//paratick:noalloc
func (e *Engine) bucketRemove(nd *node) {
	b := int(nd.loc)
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		e.buckets[b] = nd.next
		if nd.next == nil {
			e.occ &^= 1 << uint(b)
		}
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	}
	nd.next, nd.prev = nil, nil
	nd.loc = locDetached
}

// refill moves the earliest keys into the (empty) batch and reports whether
// it did. It scans the lowest occupied bucket, which holds them, for its
// length and minimum m; if m is past deadline it stops and changes nothing,
// so a redistribution never moves last past the clock RunUntil leaves.
// Bucket 0 (one instant), or one narrow and short enough, drains whole, and
// batchEnd becomes the bucket's upper bound; any other is redistributed
// around last = m, each node into a strictly lower bucket, and the scan
// repeats.
//
//paratick:noalloc
func (e *Engine) refill(deadline Time) bool {
	for e.occ != 0 {
		b := bits.TrailingZeros64(e.occ)
		head := e.buckets[b]
		m, n := head.when, 0
		for nd := head; nd != nil; nd = nd.next {
			m = min(m, nd.when)
			n++
		}
		if m > deadline {
			return false
		}
		e.buckets[b] = nil
		e.occ &^= 1 << uint(b)
		if b == 0 || b <= drainBucket && n <= drainMax {
			for nd := head; nd != nil; nd = nd.next {
				nd.loc = locBatch
				e.batch = append(e.batch, batchEnt{when: nd.when, seq: nd.seq, nd: nd})
			}
			orderBatch(e.batch)
			e.batchEnd = e.last | (Time(1)<<b - 1)
			return true
		}
		e.last = m
		for nd := head; nd != nil; {
			next := nd.next
			e.bucketAdd(nd)
			nd = next
		}
	}
	return false
}

// orderBatch sorts a drained bucket by (when, seq). A bucket's list is
// newest first, so one filled by schedules in time order drains in
// descending order and is reversed. A redistribution reverses a list again,
// so relinked nodes drain in filing order, which insertion sort passes in
// one scan; it settles any interleaving. Stability is irrelevant — seq is
// unique.
//
//paratick:noalloc
func orderBatch(a []batchEnt) {
	desc := true
	for i := 1; i < len(a) && desc; i++ {
		desc = entLess(a[i], a[i-1])
	}
	if desc {
		for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
			a[i], a[j] = a[j], a[i]
		}
		return
	}
	for i := 1; i < len(a); i++ {
		ent := a[i]
		j := i
		for j > 0 && entLess(ent, a[j-1]) {
			a[j] = a[j-1]
			j--
		}
		a[j] = ent
	}
}

// --- Batch -------------------------------------------------------------

// batchSearch returns the first index in batch[lo:hi] whose key is not
// below key's, or hi if there is none.
//
//paratick:noalloc
func (e *Engine) batchSearch(lo, hi int, key batchEnt) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if entLess(e.batch[m], key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// batchInsert places nd, whose key is at most batchEnd, into the live
// batch at its (when, seq) position. It steps back from the tail one cell
// at a time, where most inserts land. Dead (nil) entries move along with
// live ones.
//
//paratick:noalloc
func (e *Engine) batchInsert(nd *node) {
	// A fire→reschedule chain inside the batch pops from the front while
	// appending at the back; without compaction the batch array would grow
	// without bound. Sliding the live region down once the dispatched
	// prefix dominates keeps the array at ~2× the live count, amortized
	// O(1) per insert.
	if e.batchPos >= 64 && e.batchPos*2 >= len(e.batch) {
		n := copy(e.batch, e.batch[e.batchPos:])
		clear(e.batch[n:])
		e.batch = e.batch[:n]
		e.batchPos = 0
	}
	nd.loc = locBatch
	ent := batchEnt{when: nd.when, seq: nd.seq, nd: nd}
	i := len(e.batch)
	e.batch = append(e.batch, ent)
	for i > e.batchPos {
		p := e.batch[i-1]
		if !entLess(ent, p) {
			break
		}
		e.batch[i] = p
		i--
	}
	e.batch[i] = ent
}

// batchLive skips the batch's dead head cells and reports whether a live
// one remains.
//
//paratick:noalloc
func (e *Engine) batchLive() bool {
	for ; e.batchPos < len(e.batch); e.batchPos++ {
		if e.batch[e.batchPos].nd != nil {
			return true
		}
	}
	return false
}

// ensureBatch makes the batch's head cell live, refilling an empty batch
// unless the earliest pending key is past deadline. It returns false when
// no event remains at or before deadline.
//
//paratick:noalloc
func (e *Engine) ensureBatch(deadline Time) bool {
	if e.batchLive() {
		return true
	}
	e.batch = e.batch[:0]
	e.batchPos = 0
	return e.refill(deadline)
}

// dispatchHead fires the batch's (live) head: advances the clock, notifies
// the observer, recycles the node, and runs the handler.
//
//paratick:noalloc
func (e *Engine) dispatchHead() {
	nd := e.batch[e.batchPos].nd
	e.batch[e.batchPos].nd = nil
	e.batchPos++
	e.now = nd.when
	e.fired++
	e.count--
	fn := nd.fn
	if e.obs != nil {
		// Label is read before release clears it for the pool.
		e.obs(nd.label, nd.when)
	}
	e.release(nd)
	fn(e)
}

// --- Public scheduling API ---------------------------------------------

// At schedules fn to run at absolute time when. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time
// would corrupt every metric downstream.
//
//paratick:noalloc
func (e *Engine) At(when Time, label string, fn Handler) Event {
	if fn == nil {
		panic("sim: nil event handler")
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, when, e.now))
	}
	ev := e.schedule(when, e.seq, label, fn)
	e.seq++
	return ev
}

// schedule queues fn at (when, seq), the one placement path for new and
// restored events: into the batch at or below batchEnd, else into its
// bucket. Callers have validated when and seq.
//
//paratick:noalloc
func (e *Engine) schedule(when Time, seq uint64, label string, fn Handler) Event {
	nd := e.acquire()
	nd.when = when
	nd.seq = seq
	nd.fn = fn
	nd.label = label
	e.count++
	if when <= e.batchEnd {
		e.batchInsert(nd)
	} else {
		e.bucketAdd(nd)
	}
	return Event{n: nd, gen: nd.gen}
}

// After schedules fn to run delay nanoseconds from now.
//
//paratick:noalloc
func (e *Engine) After(delay Time, label string, fn Handler) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", delay, label))
	}
	return e.At(e.now+delay, label, fn)
}

// Cancel removes a pending event from the queue. Canceling a zero, fired,
// or already-canceled handle is a harmless no-op and returns false.
//
//paratick:noalloc
func (e *Engine) Cancel(ev Event) bool {
	if !ev.live() {
		return false
	}
	nd := ev.n
	if nd.loc == locBatch {
		// The cell keeps its (when, seq) key so the batch stays key-sorted
		// for later searches; only the node is dropped.
		i := e.batchSearch(e.batchPos, len(e.batch), batchEnt{when: nd.when, seq: nd.seq})
		if i == len(e.batch) || e.batch[i].nd != nd {
			panic("sim: batch node missing from its (when, seq) cell")
		}
		e.batch[i].nd = nil
		nd.loc = locDetached
	} else {
		e.bucketRemove(nd)
	}
	e.count--
	e.release(nd)
	return true
}

// Step dispatches the single earliest event. It returns false when the queue
// is empty.
//
//paratick:noalloc
func (e *Engine) Step() bool {
	if !e.ensureBatch(Forever) {
		return false
	}
	e.dispatchHead()
	return true
}

// StepBatch dispatches every event sharing the earliest pending timestamp
// — one simulated instant — in (when, seq) order, including events that
// handlers schedule for that same instant mid-batch. It returns the number
// of events dispatched (0 when the queue is empty). A Stop issued by a
// handler halts the batch after that handler returns, leaving the rest
// queued; like Step, StepBatch itself does not consume the stop request.
//
//paratick:noalloc
func (e *Engine) StepBatch() int {
	if !e.ensureBatch(Forever) {
		return 0
	}
	// The instant is at most batchEnd, so all of it is in the batch.
	t0 := e.batch[e.batchPos].when
	n := 0
	for e.batchLive() && e.batch[e.batchPos].when == t0 {
		e.dispatchHead()
		n++
		if e.stopReq {
			break
		}
	}
	return n
}

// consumeStop observes a pending stop request, converting it into the
// stopped state. Each request halts exactly one run (the current one, or —
// when issued between runs — the next one before it dispatches anything).
func (e *Engine) consumeStop() bool {
	if !e.stopReq {
		return false
	}
	e.stopReq = false
	e.stopped = true
	return true
}

// Run dispatches events until the queue empties or the engine is stopped.
// A Stop issued before Run starts halts it before any event fires; a
// subsequent Run resumes.
func (e *Engine) Run() {
	if e.consumeStop() {
		return
	}
	e.stopped = false
	for e.StepBatch() > 0 {
		if e.consumeStop() {
			return
		}
	}
}

// RunUntil dispatches events with time ≤ deadline, then advances the clock
// to exactly the deadline (if it is later than the last event). Like Run, it
// honors a Stop issued before it starts. Dispatch goes through StepBatch, so
// every event of a simulated instant drains in one pass.
func (e *Engine) RunUntil(deadline Time) {
	if !e.consumeStop() {
		e.stopped = false
		for e.ensureBatch(deadline) && e.batch[e.batchPos].when <= deadline {
			e.StepBatch()
			if e.consumeStop() {
				break
			}
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Stop requests a halt: the current run stops after the in-flight handler
// returns, and a Stop issued while no run is active stops the next
// Run/RunUntil before it dispatches anything.
func (e *Engine) Stop() { e.stopReq = true }

// Stopped reports whether the engine is halted by Stop: either the most
// recent run was interrupted, or a stop request is still pending.
func (e *Engine) Stopped() bool { return e.stopped || e.stopReq }
