package sim

import (
	"fmt"
	"math/bits"
)

// Handler is the callback type for scheduled events. It receives the engine
// so that handlers can schedule follow-up events without capturing it.
type Handler func(e *Engine)

// Node location discriminators. A node is always in exactly one container:
// a wheel bucket (loc in [0, wheelBuckets), the ring slot), a sub-list of
// the split bucket (loc in [locSub, locSub+subLists)), the overflow heap
// (locHeap), the active dispatch batch (locBatch), or detached
// (fired/canceled/free).
const (
	locDetached int32 = -1
	locHeap     int32 = -2
	locBatch    int32 = -3
	locSub      int32 = wheelBuckets
)

// node is the pooled representation of a scheduled event. Nodes are recycled
// through the engine's free list; the generation counter invalidates stale
// Event handles across reuse. A wheel node is linked into its bucket's list
// by next and prev (prev is nil at the head); a heap node has index, its
// heap position. A sub-list node is linked like a wheel node. A batch node
// has neither — Cancel finds its cell by binary search on (when, seq). The
// links mean something only while the node is in a bucket or sub-list, and
// release clears them.
type node struct {
	when       Time
	seq        uint64
	index      int
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

// less orders events by (when, seq). The seq tie-break makes event ordering
// — and therefore entire simulations — deterministic.
//
//paratick:noalloc
func less(a, b *node) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// batchEnt is one batch slot: the (when, seq) sort key copied out of the
// node so the hot dispatch/insert paths stay in one contiguous array.
type batchEnt struct {
	when Time
	seq  uint64
	nd   *node
}

// entLess is the same (when, seq) total order as less, on inline keys.
//
//paratick:noalloc
func entLess(a, b batchEnt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Near-horizon wheel geometry. The wheel covers wheelBuckets consecutive
// buckets of 1<<DefaultBucketShift nanoseconds each, starting at the bucket
// containing the current time: a bucket spans ~65.5µs and the wheel horizon
// is ~16.8ms — wide enough that tick periods, timeslices, and IPI latencies
// all land in the wheel, so the overflow heap only sees watchdog-scale
// deadlines.
const (
	wheelBuckets = 256
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64

	// DefaultBucketShift is log2 of the bucket span in nanoseconds, the one
	// wheel geometry every engine uses.
	DefaultBucketShift = 16

	// sortCutover is the batch size above which bucket drains switch from
	// insertion sort to in-place heapsort, or split (see splits).
	sortCutover = 32

	// subLists is how many sub-lists a dense bucket splits into on drain,
	// each spanning 1<<subShift ns (1.024µs).
	subBits  = 6
	subLists = 1 << subBits
	subMask  = subLists - 1
	subShift = DefaultBucketShift - subBits
)

// Engine is the discrete-event simulation core: a clock plus an event queue.
// It is single-threaded by design; determinism is a core requirement for the
// reproduction experiments, so no goroutines or wall-clock time are involved.
// (Independent engines may run concurrently — the parallel experiment runner
// relies on each run owning a private Engine.)
//
// The queue is a two-tier hybrid. Events within the near horizon go into a
// bitmap-indexed timer wheel: 256 buckets of 2^16 ns, with per-word
// occupancy bitmaps so the next occupied bucket is a handful of word scans.
// Each bucket is the head of a doubly linked list threaded through the
// nodes, so filing and canceling are O(1) and an idle engine's wheel is
// 256 nil pointers, with no per-bucket storage to grow or retain.
// Far-future events overflow into an inlined binary min-heap — no
// container/heap interface dispatch, no boxing — and cascade into the wheel
// as the window advances with time. Dispatch drains one bucket at a time
// into a sorted batch, so the common near-horizon event costs O(1) amortized
// instead of an O(log n) heap pop. A dense bucket — more than sortCutover
// events over more than one of its 64 sub-spans — is split on drain into
// sub-lists that enter the batch one at a time, so a follow-up scheduled
// into a later sub-span is linked in O(1) instead of shifted into the batch.
// Fired or canceled nodes return to a free list, so steady-state
// schedule→fire→reschedule cycles allocate nothing.
//
// The hybrid preserves the exact (when, seq) total dispatch order of the
// classic pure-heap engine; engine_ref_test.go proves the equivalence
// differentially.
type Engine struct {
	now Time

	// Near-horizon wheel. The window covers absolute buckets
	// [wheelBase, wheelBase+wheelBuckets); wheelEnd is the window's end as
	// a time (saturated at Forever). wheelBase tracks now's bucket, so every
	// schedulable time below wheelEnd maps to a unique ring slot.
	// The queue population is never encoded: owners re-arm every pending
	// event through ScheduleRestored on load, which rebuilds the wheel,
	// batch, and heap below from scratch.
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	wheelBase int64
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	wheelEnd Time
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	wheelCount int
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	occ [wheelWords]uint64
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	buckets [wheelBuckets]*node // list heads, newest first

	// Active dispatch batch: one drained bucket, sorted by (when, seq).
	// Entries carry the sort key inline so comparisons, binary searches and
	// the dispatch loop's same-instant scan never dereference nodes;
	// canceled entries keep their key but drop the node (nd == nil), so
	// the live region batch[batchPos:] stays key-sorted. batchBkt is the
	// absolute bucket the batch was drained from (-1 when no batch is
	// active); same-bucket schedules during a drain are inserted into the
	// live batch by batchInsert.
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	batch []batchEnt
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	batchPos int
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	batchBkt int64

	// Split bucket: splitBkt is the absolute bucket whose drain was split
	// (-1 when none is), sub its sub-lists (newest first, like a bucket),
	// subOcc their occupancy, and batchSub the sub-list the batch holds (-1
	// when the batch holds none yet). While a bucket is split batchBkt is
	// -1, so schedules into it take the wheel branch of schedule.
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	splitBkt int64
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	batchSub int
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	subOcc uint64

	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	heap []*node // overflow min-heap; invariant: heap min >= wheelEnd
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
	// sub is allocated on the first split and kept across Reset, so an
	// engine that never drains a dense bucket carries one nil pointer.
	//snap:skip derived queue state, rebuilt by ScheduleRestored on load
	sub *[subLists]*node
}

// Observer receives one callback per dispatched event, immediately before
// its handler runs: the event's label and fire time. It is the engine's
// profiling hook — trace tools aggregate label counts or export timelines
// from it. The callback path allocates nothing, and a nil observer costs one
// predicted branch on the dispatch path, preserving the engine's 0 allocs/op
// steady state.
type Observer func(label string, when Time)

// initialQueueCap presizes the overflow heap (and first free-list slab) so
// typical simulations never grow either on the hot path.
const initialQueueCap = 256

// NewEngine returns an engine at time zero with an RNG seeded by seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{heap: make([]*node, 0, initialQueueCap), rand: new(Rand)}
	e.Reset(seed)
	return e
}

// wheelEndFor returns the time at which the window starting at absolute
// bucket base stops covering, saturating at Forever on overflow. When
// saturated the remaining representable buckets number fewer than
// wheelBuckets, so slot mapping stays injective.
//
//paratick:noalloc
func wheelEndFor(base int64) Time {
	end := (base + wheelBuckets) << DefaultBucketShift
	if end>>DefaultBucketShift != base+wheelBuckets || end < 0 {
		return Forever
	}
	return Time(end)
}

// Reset returns the engine to time zero with a fresh RNG stream, releasing
// every pending event while keeping the node pool, batch, heap, and
// sub-list head capacities. It is the only writer of the engine's per-run
// state: NewEngine builds a shell and calls it, and the experiment layer's
// per-worker arenas call it to reuse one engine across repeated runs.
func (e *Engine) Reset(seed uint64) {
	e.eachNode(e.release)
	e.buckets = [wheelBuckets]*node{}
	e.occ = [wheelWords]uint64{}
	e.wheelCount = 0
	clear(e.batch)
	e.batch = e.batch[:0]
	e.batchPos = 0
	e.batchBkt = -1
	if e.sub != nil {
		*e.sub = [subLists]*node{}
	}
	e.subOcc = 0
	e.splitBkt = -1
	e.batchSub = -1
	clear(e.heap)
	e.heap = e.heap[:0]

	e.now = 0
	e.wheelBase = 0
	e.wheelEnd = wheelEndFor(0)
	e.seq = 0
	e.fired = 0
	e.count = 0
	e.stopReq = false
	e.stopped = false
	e.obs = nil
	e.rand.Reseed(seed)
}

// eachNode calls fn on every pending node. It is the one enumeration of
// the four containers a pending node can sit in: the wheel buckets, the
// live batch, a split bucket's sub-lists, and the overflow heap. fn may
// release the node it is given, but must not schedule or cancel.
//
//paratick:noalloc
func (e *Engine) eachNode(fn func(*node)) {
	for w, occ := range e.occ {
		for ; occ != 0; occ &= occ - 1 {
			eachLinked(e.buckets[w<<6+bits.TrailingZeros64(occ)], fn)
		}
	}
	for _, ent := range e.batch[e.batchPos:] {
		if ent.nd != nil {
			fn(ent.nd)
		}
	}
	for occ := e.subOcc; occ != 0; occ &= occ - 1 {
		eachLinked(e.sub[bits.TrailingZeros64(occ)], fn)
	}
	for _, nd := range e.heap {
		fn(nd)
	}
}

// eachLinked calls fn on every node of the list at nd, reading each link
// before fn can clear it.
//
//paratick:noalloc
func eachLinked(nd *node, fn func(*node)) {
	for nd != nil {
		next := nd.next
		fn(nd)
		nd = next
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
	nd.index = -1
	nd.next, nd.prev = nil, nil
	nd.fn = nil
	nd.label = ""
	e.free = append(e.free, nd)
}

// --- Overflow heap (far-future tier) -----------------------------------

// siftUp moves heap[i] toward the root until the heap order holds.
//
//paratick:noalloc
func (e *Engine) siftUp(i int) {
	q := e.heap
	nd := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !less(nd, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = nd
	nd.index = i
}

// siftDown moves heap[i] toward the leaves until the heap order holds.
//
//paratick:noalloc
func (e *Engine) siftDown(i int) {
	q := e.heap
	n := len(q)
	nd := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := q[child]
		if r := child + 1; r < n && less(q[r], c) {
			child, c = r, q[r]
		}
		if !less(c, nd) {
			break
		}
		q[i] = c
		c.index = i
		i = child
	}
	q[i] = nd
	nd.index = i
}

// push appends nd to the overflow heap and restores the heap order.
//
//paratick:noalloc
func (e *Engine) push(nd *node) {
	nd.loc = locHeap
	nd.index = len(e.heap)
	e.heap = append(e.heap, nd)
	e.siftUp(nd.index)
}

// popMin removes and returns the earliest heap node.
//
//paratick:noalloc
func (e *Engine) popMin() *node {
	q := e.heap
	root := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	e.heap = q[:last]
	if last > 0 {
		e.siftDown(0)
	}
	root.index = -1
	root.loc = locDetached
	return root
}

// remove deletes nd from an arbitrary heap position.
//
//paratick:noalloc
func (e *Engine) remove(nd *node) {
	q := e.heap
	i := nd.index
	last := len(q) - 1
	if i != last {
		moved := q[last]
		q[i] = moved
		moved.index = i
		q[last] = nil
		e.heap = q[:last]
		e.siftDown(i)
		if moved.index == i {
			e.siftUp(i)
		}
	} else {
		q[last] = nil
		e.heap = q[:last]
	}
	nd.index = -1
	nd.loc = locDetached
}

// --- Near-horizon wheel (fast tier) ------------------------------------

// link pushes nd onto the front of the list at head, so a list holds its
// nodes newest first.
//
//paratick:noalloc
func link(head **node, nd *node) {
	nd.prev = nil
	nd.next = *head
	if nd.next != nil {
		nd.next.prev = nd
	}
	*head = nd
}

// unlink removes nd from the list at head and detaches it.
//
//paratick:noalloc
func unlink(head **node, nd *node) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		*head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	}
	nd.next, nd.prev = nil, nil
	nd.loc = locDetached
}

// wheelAdd links nd in at the head of its ring bucket and marks the
// occupancy bit. Callers guarantee nd.when < e.wheelEnd.
//
//paratick:noalloc
func (e *Engine) wheelAdd(nd *node) {
	s := int(int64(nd.when>>DefaultBucketShift) & wheelMask)
	nd.loc = int32(s)
	link(&e.buckets[s], nd)
	e.occ[s>>6] |= 1 << uint(s&63)
	e.wheelCount++
}

// bucketRemove unlinks nd from its wheel bucket, clearing the occupancy
// bit when the bucket empties.
//
//paratick:noalloc
func (e *Engine) bucketRemove(nd *node) {
	s := int(nd.loc)
	unlink(&e.buckets[s], nd)
	if e.buckets[s] == nil {
		e.occ[s>>6] &^= 1 << uint(s&63)
	}
	e.wheelCount--
}

// nextOccupied scans the occupancy bitmap for the first occupied ring slot
// at or after s0, wrapping around, and returns -1 when the wheel is empty.
// Because every wheel event lives in [wheelBase, wheelBase+wheelBuckets)
// and s0 is wheelBase's slot, ring order from s0 is absolute time order.
//
//paratick:noalloc
func (e *Engine) nextOccupied(s0 int) int {
	w0 := s0 >> 6
	off := uint(s0 & 63)
	if m := e.occ[w0] &^ (1<<off - 1); m != 0 {
		return w0<<6 + bits.TrailingZeros64(m)
	}
	for i := 1; i <= wheelWords; i++ {
		w := (w0 + i) & (wheelWords - 1)
		m := e.occ[w]
		if w == w0 {
			m &= 1<<off - 1
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// advanceWindow slides the wheel window forward to the bucket containing
// now and cascades overflow-heap events that fell inside the new horizon
// into their wheel buckets. Called on every dispatch; the common case —
// same bucket as the previous event — is a single compare.
//
//paratick:noalloc
func (e *Engine) advanceWindow() {
	ab := int64(e.now >> DefaultBucketShift)
	if ab <= e.wheelBase {
		return
	}
	e.wheelBase = ab
	e.wheelEnd = wheelEndFor(ab)
	for len(e.heap) > 0 && e.heap[0].when < e.wheelEnd {
		e.wheelAdd(e.popMin())
	}
}

// --- Batch (drained-bucket) dispatch -----------------------------------

// orderList sorts a batch drained from a bucket's or sub-list's list, which
// holds it newest first. Reversed, that is filing order, which is seq order
// unless a cascade, spill or restore interleaved: insertion sort passes it
// in one scan, and above sortCutover a run already in order skips the
// heapsort, which otherwise builds its heap fastest from the descending
// order as it is.
//
//paratick:noalloc
func orderList(a []batchEnt) {
	if len(a) > sortCutover && !descending(a) {
		sortEnts(a)
		return
	}
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
	if len(a) <= sortCutover {
		sortEnts(a)
	}
}

// descending reports whether a is in strictly descending (when, seq) order.
//
//paratick:noalloc
func descending(a []batchEnt) bool {
	for i := 1; i < len(a); i++ {
		if entLess(a[i-1], a[i]) {
			return false
		}
	}
	return true
}

// sortEnts orders a by (when, seq): insertion sort for the typical small
// bucket, in-place heapsort (via siftDownMax) above sortCutover so dense
// buckets stay O(n log n). Stability is irrelevant — seq is unique.
//
//paratick:noalloc
func sortEnts(a []batchEnt) {
	n := len(a)
	if n <= sortCutover {
		for i := 1; i < n; i++ {
			ent := a[i]
			j := i
			for j > 0 && entLess(ent, a[j-1]) {
				a[j] = a[j-1]
				j--
			}
			a[j] = ent
		}
		return
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMax(a, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftDownMax(a, 0, i)
	}
}

// siftDownMax restores the max-heap property for a[:n] rooted at i.
//
//paratick:noalloc
func siftDownMax(a []batchEnt, i, n int) {
	ent := a[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := a[child]
		if r := child + 1; r < n && entLess(c, a[r]) {
			child, c = r, a[r]
		}
		if !entLess(ent, c) {
			break
		}
		a[i] = c
		i = child
	}
	a[i] = ent
}

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

// batchInsert places nd into the live batch at its (when, seq) position,
// used when a schedule lands in the bucket currently being drained. It
// steps back from the tail one cell at a time, where most inserts land.
// Canceled (nil) entries move along with live ones.
//
//paratick:noalloc
func (e *Engine) batchInsert(nd *node) {
	// A fire→reschedule chain inside one bucket pops from the front while
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

// spillBatch returns the undispatched remainder of the batch, and of a
// split bucket's sub-lists, to the wheel or heap. It runs only on the rare
// out-of-order schedule: a RunUntil peek drained a future bucket ahead of
// now, and the caller then scheduled an event into an earlier bucket. Nodes
// keep their seq, so re-draining later reproduces the exact order.
//
//paratick:noalloc
func (e *Engine) spillBatch() {
	for i := e.batchPos; i < len(e.batch); i++ {
		nd := e.batch[i].nd
		e.batch[i] = batchEnt{}
		if nd == nil {
			continue
		}
		if nd.when < e.wheelEnd {
			e.wheelAdd(nd)
		} else {
			e.push(nd)
		}
	}
	e.batch = e.batch[:0]
	e.batchPos = 0
	e.batchBkt = -1
	for e.subOcc != 0 {
		j := bits.TrailingZeros64(e.subOcc)
		e.subOcc &= e.subOcc - 1
		for nd := e.sub[j]; nd != nil; {
			next := nd.next
			e.wheelAdd(nd)
			nd = next
		}
		e.sub[j] = nil
	}
	e.splitBkt = -1
}

// refillBatch drains the next occupied bucket into the (empty) batch.
// Callers guarantee the engine holds at least one pending event outside
// the batch.
//
//paratick:noalloc
func (e *Engine) refillBatch() {
	if e.wheelCount == 0 {
		// Idle gap beyond the horizon: pull the heap's earliest bucket
		// straight into the batch. Consecutive popMin calls yield
		// (when, seq) order, so the batch arrives sorted.
		ab := int64(e.heap[0].when >> DefaultBucketShift)
		for len(e.heap) > 0 && int64(e.heap[0].when>>DefaultBucketShift) == ab {
			e.batchAppend(e.popMin())
		}
		e.batchBkt = ab
		return
	}
	s0 := int(e.wheelBase & wheelMask)
	s := e.nextOccupied(s0)
	if s < 0 {
		panic("sim: wheel count positive but occupancy empty")
	}
	for nd := e.buckets[s]; nd != nil; nd = nd.next {
		e.batchAppend(nd)
	}
	e.buckets[s] = nil
	e.occ[s>>6] &^= 1 << uint(s&63)
	e.wheelCount -= len(e.batch)
	bkt := e.wheelBase + int64((s-s0)&wheelMask)
	if e.splits() {
		e.split(bkt)
		return
	}
	orderList(e.batch)
	e.batchBkt = bkt
	// A saturated window ends at Forever, so the bucket holding Forever
	// straddles it: events at exactly Forever sit in the heap. They follow every
	// wheel entry of the bucket in (when, seq) order; drain them too, or a
	// later same-bucket schedule would join the batch ahead of them.
	for e.wheelEnd == Forever && len(e.heap) > 0 && int64(e.heap[0].when>>DefaultBucketShift) == e.batchBkt {
		e.batchAppend(e.popMin())
	}
}

// splits reports whether a drained bucket is dense enough to split: more
// than sortCutover entries over more than one sub-span. Nothing splits
// while the window is saturated: the bucket holding Forever keeps its
// events at exactly Forever in the heap.
//
//paratick:noalloc
func (e *Engine) splits() bool {
	if len(e.batch) <= sortCutover || e.wheelEnd == Forever {
		return false
	}
	j := e.batch[0].when >> subShift
	for _, ent := range e.batch[1:] {
		if ent.when>>subShift != j {
			return true
		}
	}
	return false
}

// split spreads the drained batch of bucket bkt over the sub-lists, one
// per sub-span, and serves the first.
//
//paratick:noalloc
func (e *Engine) split(bkt int64) {
	if e.sub == nil {
		//lint:ignore A001 sub-list heads: allocated on an engine's first dense drain, kept across Reset
		e.sub = new([subLists]*node)
	}
	// The batch holds the bucket newest first; linking from its end leaves
	// every sub-list newest first too.
	for i := len(e.batch) - 1; i >= 0; i-- {
		e.subLink(e.batch[i].nd)
		e.batch[i] = batchEnt{}
	}
	e.batch = e.batch[:0]
	e.splitBkt = bkt
	e.serveSub()
}

// serveSub drains the earliest occupied sub-list into the (empty) batch.
//
//paratick:noalloc
func (e *Engine) serveSub() {
	j := bits.TrailingZeros64(e.subOcc)
	e.subOcc &^= 1 << uint(j)
	for nd := e.sub[j]; nd != nil; nd = nd.next {
		e.batchAppend(nd)
	}
	e.sub[j] = nil
	orderList(e.batch)
	e.batchSub = j
}

// subLink links nd into the split bucket's sub-list for its time.
//
//paratick:noalloc
func (e *Engine) subLink(nd *node) {
	j := int(nd.when>>subShift) & subMask
	nd.loc = locSub + int32(j)
	link(&e.sub[j], nd)
	e.subOcc |= 1 << uint(j)
}

// scheduleSplit places nd, whose bucket ab is at or before the split
// bucket. In the batch's own sub-list it joins the batch, in a later one
// that sub-list. Anything earlier means the batch was served ahead of now
// (a peek at the next event serves it before the clock gets there) and nd
// lands before it: an earlier sub-list takes the batch back first, an
// earlier bucket the whole split bucket.
//
//paratick:noalloc
func (e *Engine) scheduleSplit(nd *node, ab int64) {
	if ab < e.splitBkt {
		e.spillBatch()
		e.wheelAdd(nd)
		return
	}
	j := int(nd.when>>subShift) & subMask
	if j == e.batchSub {
		e.batchInsert(nd)
		return
	}
	if j < e.batchSub {
		// Linked back in (when, seq) order, the sub-list is newest first.
		for i := e.batchPos; i < len(e.batch); i++ {
			if b := e.batch[i].nd; b != nil {
				e.subLink(b)
			}
			e.batch[i] = batchEnt{}
		}
		e.batch = e.batch[:0]
		e.batchPos = 0
		e.batchSub = -1
	}
	e.subLink(nd)
}

// batchAppend moves nd to the end of the batch being refilled.
//
//paratick:noalloc
func (e *Engine) batchAppend(nd *node) {
	nd.loc = locBatch
	e.batch = append(e.batch, batchEnt{when: nd.when, seq: nd.seq, nd: nd})
}

// ensureBatch makes the live batch non-empty, refilling it from the wheel
// or overflow heap as needed. It returns false when no events remain.
//
//paratick:noalloc
func (e *Engine) ensureBatch() bool {
	for {
		for e.batchPos < len(e.batch) && e.batch[e.batchPos].nd == nil {
			e.batchPos++
		}
		if e.batchPos < len(e.batch) {
			return true
		}
		e.batch = e.batch[:0]
		e.batchPos = 0
		e.batchBkt = -1
		if e.splitBkt >= 0 {
			if e.subOcc != 0 {
				e.serveSub()
				continue
			}
			e.splitBkt = -1
		}
		if e.wheelCount == 0 && len(e.heap) == 0 {
			return false
		}
		e.refillBatch()
	}
}

// peekWhen returns the earliest pending event time.
//
//paratick:noalloc
func (e *Engine) peekWhen() (Time, bool) {
	if !e.ensureBatch() {
		return 0, false
	}
	return e.batch[e.batchPos].when, true
}

// dispatch fires nd: advances the clock and wheel window, notifies the
// observer, recycles the node, and runs the handler.
//
//paratick:noalloc
func (e *Engine) dispatch(nd *node) {
	e.now = nd.when
	e.advanceWindow()
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
// restored events: into the live batch when it lands in the batch's bucket,
// else into the wheel or the overflow heap. A split bucket is not the
// batch's bucket, so its schedules take the wheel branch, the only one that
// tests for a split (splitBkt is -1, below every bucket, when none is).
// Callers have validated when and seq.
//
//paratick:noalloc
func (e *Engine) schedule(when Time, seq uint64, label string, fn Handler) Event {
	nd := e.acquire()
	nd.when = when
	nd.seq = seq
	nd.fn = fn
	nd.label = label
	e.count++
	ab := int64(when >> DefaultBucketShift)
	if e.batchBkt >= 0 && ab < e.batchBkt {
		// The batch was drained ahead of now (RunUntil peeked past an idle
		// gap) and this event lands before it: put the batch back first.
		e.spillBatch()
	}
	switch {
	case ab == e.batchBkt:
		e.batchInsert(nd)
	case when < e.wheelEnd:
		if ab <= e.splitBkt {
			e.scheduleSplit(nd, ab)
		} else {
			e.wheelAdd(nd)
		}
	default:
		e.push(nd)
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
	switch {
	case nd.loc == locHeap:
		e.remove(nd)
	case nd.loc == locBatch:
		// The cell keeps its (when, seq) key so the batch stays key-sorted
		// for later searches; only the node is dropped.
		i := e.batchSearch(e.batchPos, len(e.batch), batchEnt{when: nd.when, seq: nd.seq})
		if i == len(e.batch) || e.batch[i].nd != nd {
			panic("sim: batch node missing from its (when, seq) cell")
		}
		e.batch[i].nd = nil
		nd.loc = locDetached
	case nd.loc >= locSub:
		j := int(nd.loc - locSub)
		unlink(&e.sub[j], nd)
		if e.sub[j] == nil {
			e.subOcc &^= 1 << uint(j)
		}
	default:
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
	if !e.ensureBatch() {
		return false
	}
	pos := e.batchPos
	nd := e.batch[pos].nd
	e.batch[pos].nd = nil
	e.batchPos = pos + 1
	e.dispatch(nd)
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
	if !e.ensureBatch() {
		return 0
	}
	t0 := e.batch[e.batchPos].when
	n := 0
	for e.ensureBatch() {
		pos := e.batchPos
		if e.batch[pos].when != t0 {
			break
		}
		nd := e.batch[pos].nd
		e.batch[pos].nd = nil
		e.batchPos = pos + 1
		e.dispatch(nd)
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
		for {
			when, ok := e.peekWhen()
			if !ok || when > deadline {
				break
			}
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
