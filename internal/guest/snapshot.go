package guest

// Checkpoint/restore of the guest kernel: tasks, vCPUs, synchronization
// objects, timer wheels, and attached devices. Cross-object references are
// plain data moved as identities — task ids, and registry ordinals, which
// is why the kernel registers sync objects in creation order — and each
// fact is written once: a task record names the one place the task is, and
// decoding rebuilds run queues and waiter lists from those placements.
// Closures are never serialized, and the segment pool is drained, not saved.
//
// Decoding targets a kernel freshly rebuilt from the same scenario
// specification: identical vCPU count, task spawn order, sync-object
// creation order, and device attachment order. Pending timers and
// in-service I/O re-arm their engine events at the original (when, seq)
// coordinates.

import (
	"cmp"
	"slices"

	"paratick/internal/core"
	"paratick/internal/iodev"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// --- timer wheel -------------------------------------------------------------

// snapClock moves the wheel's clock. Its jiffy is configuration, fixed by
// the rebuilt scenario. Bucket contents are not enumerated: every timer in
// a scenario wheel is a task sleep timer, moved by the sleeping task that
// owns it. Decoding requires an empty wheel.
func (w *TimerWheel) snapClock(s *snap.Stream) {
	if s.Decoding() {
		if w.count != 0 {
			s.Failf("guest: restore into a wheel holding %d timers", w.count)
		}
	}
	s.I64(&w.curJiff)
	s.U64(&w.seq)
	if w.curJiff < 0 || w.curJiff >= w.maxJiff {
		s.Failf("guest: snapshot wheel clock at jiffy %d", w.curJiff)
	}
}

// snapTimer moves a pending timer's deadline, and the fire jiffy and
// Add-order seq assigned at the original Add. Decoding re-queues the timer
// on w, bound to fire, with that placement identity; the wheel's clock must
// already be restored. Decoding refuses what Add never assigns: a fire
// jiffy at or before the clock, before the deadline's jiffy or past the
// "never" jiffy, and a seq the wheel has not handed out yet.
func (w *TimerWheel) snapTimer(s *snap.Stream, t *SoftTimer, fire func(sim.Time)) {
	if s.Decoding() {
		*t = SoftTimer{}
	}
	snap.Int(s, &t.Deadline)
	s.I64(&t.fireJiff)
	s.U64(&t.seq)
	if !s.Decoding() || s.Err() != nil {
		return
	}
	switch {
	case t.fireJiff <= w.curJiff:
		s.Failf("guest: restored timer fires at jiffy %d, wheel already at %d", t.fireJiff, w.curJiff)
	case t.fireJiff < w.deadlineJiffies(t.Deadline):
		s.Failf("guest: restored timer fires at jiffy %d, before its deadline %v", t.fireJiff, t.Deadline)
	case t.fireJiff > w.maxJiff:
		s.Failf("guest: restored timer fires at jiffy %d, past the never jiffy %d", t.fireJiff, w.maxJiff)
	case t.seq >= w.seq:
		s.Failf("guest: restored timer has seq %d, wheel has handed out %d", t.seq, w.seq)
	default:
		t.Fire = fire
		w.insert(t)
	}
}

// --- segments ----------------------------------------------------------------

// snapSegment moves one segment: its kind and label, then what the kind
// has — a run's duration, flags and owners (the task a run advances, and
// the lock an optimistic spin re-probes), an MSR write's deadline, an
// io-submit's device and request, an IPI's target, a hypercall's kind and
// argument. Decoding passes a nil seg and receives a fresh pooled segment;
// it rejects segments the hypervisor could not execute.
func (k *Kernel) snapSegment(s *snap.Stream, seg *Segment) *Segment {
	if seg == nil {
		seg = k.acquireSeg()
	}
	snap.Byte(s, &seg.Kind)
	s.String(&seg.Label)
	switch seg.Kind {
	case SegRun:
		snap.Int(s, &seg.Duration)
		s.Bool(&seg.Kernel)
		s.Bool(&seg.Spin)
		k.snapTask(s, &seg.ownerTask)
		lock := -1
		if seg.ownerLock != nil {
			lock = seg.ownerLock.id
		}
		snap.Int(s, &lock)
		switch {
		case lock < -1 || lock >= len(k.locks) || lock >= 0 && seg.ownerTask == nil:
			s.Failf("guest: snapshot spin segment references lock %d of %d", lock, len(k.locks))
		case lock >= 0 && s.Decoding():
			seg.ownerLock = k.locks[lock]
		}
	case SegMSRWrite:
		snap.Int(s, &seg.Deadline)
	case SegIOSubmit:
		dev := slices.Index(k.devices, seg.Dev)
		if snap.Int(s, &dev); dev < 0 || dev >= len(k.devices) {
			s.Failf("guest: snapshot io-submit segment references device %d of %d", dev, len(k.devices))
			return seg
		}
		seg.Dev = k.devices[dev]
		if seg.Req == nil {
			seg.Req = new(iodev.Request)
		}
		seg.Req.Snap(s, len(k.vcpus), len(k.tasks))
	case SegIPI:
		if snap.Int(s, &seg.Target); seg.Target < 0 || seg.Target >= len(k.vcpus) {
			s.Failf("guest: snapshot segment targets vCPU %d of %d", seg.Target, len(k.vcpus))
		}
	case SegHypercall:
		snap.Int(s, &seg.HKind)
		s.I64(&seg.HArg)
	case SegHLT:
	default:
		s.Failf("guest: snapshot segment has unknown kind %d", seg.Kind)
	}
	return seg
}

// snapTask moves a task reference as its registry ID (-1 for none).
func (k *Kernel) snapTask(s *snap.Stream, t **Task) {
	id := -1
	if *t != nil {
		id = (*t).ID
	}
	snap.Int(s, &id)
	if !s.Decoding() {
		return
	}
	*t = nil
	switch {
	case id < -1 || id >= len(k.tasks):
		s.Failf("guest: snapshot references task %d of %d", id, len(k.tasks))
	case id >= 0:
		*t = k.tasks[id]
	}
}

// --- kernel ------------------------------------------------------------------

// Issued returns the segment most recently handed to the hypervisor (nil
// when none is outstanding). The hypervisor reads it as the in-flight
// segment of its run, exit and HLT phases.
func (v *VCPU) Issued() *Segment { return v.issued }

// Snap moves the kernel's complete mutable state. The shared metrics
// counters are excluded (the hypervisor and guest write into one Counters
// object; its owner moves it once). Every spawned program must implement
// ProgramState. Decoding re-arms pending soft timers and device events at
// their original engine coordinates, so the engine's clock must already be
// restored.
//
// Run queues, current tasks and waiter lists are not moved: each task
// record names the one place its task is, and decoding rebuilds the lists
// from those placements.
func (k *Kernel) Snap(s *snap.Stream) {
	s.Section("guest")
	k.rng.Snap(s)
	s.Bool(&k.started)

	s.Len(len(k.locks), "guest locks")
	for _, l := range k.locks {
		k.snapTask(s, &l.holder)
		s.U64(&l.acquisitions)
		s.U64(&l.contended)
	}
	s.Len(len(k.barriers), "guest barriers")
	for _, b := range k.barriers {
		snap.Int(s, &b.parties) // mutable: detach shrinks the party
		s.U64(&b.cycles)
	}
	s.Len(len(k.conds), "guest conds")
	for _, c := range k.conds {
		s.U64(&c.waits)
		s.U64(&c.signals)
	}

	s.Len(len(k.vcpus), "guest vCPUs")
	for _, v := range k.vcpus {
		k.snapVCPU(s, v)
	}

	s.Len(len(k.tasks), "guest tasks")
	k.placeTasks(s.Decoding())
	k.liveTasks = 0
	for _, t := range k.tasks {
		k.snapTaskState(s, t)
		if t.state != TaskDone {
			k.liveTasks++
		}
	}
	s.Len(len(k.devices), "guest devices")
	for _, d := range k.devices {
		d.Snap(s, len(k.vcpus), len(k.tasks))
	}
	if s.Decoding() && s.Err() == nil {
		k.checkPlacement(s)
	}
}

// snapVCPU moves one vCPU: policy state word, wheel clock, run state, and
// the queued and issued segments. Decoding first clears the rebuilt
// world's run state, returning its segments to the pool.
func (k *Kernel) snapVCPU(s *snap.Stream, v *VCPU) {
	if s.Decoding() {
		v.clearRunState()
	}
	policy := core.PolicyState(v.policy)
	s.U64(&policy)
	if s.Decoding() {
		if err := core.SetPolicyState(v.policy, policy); err != nil {
			s.Failf("%w", err)
		}
	}
	v.wheel.snapClock(s)
	s.Bool(&v.idle)
	s.Bool(&v.needResched)
	s.Bool(&v.booted)
	snap.Int(s, &v.timerDeadline) // sim.Forever: disarmed
	s.Bool(&v.rcuPending)
	snap.Int(s, &v.rcuDeadline)
	snap.Int(s, &v.switchCount)
	snap.Int(s, &v.lastTickAt)
	for i := range snap.Slice(s, &v.queue) {
		v.queue[i] = k.snapSegment(s, v.queue[i])
	}
	issued := v.issued != nil
	s.Bool(&issued)
	if issued {
		v.issued = k.snapSegment(s, v.issued)
	}
}

// snapTaskState moves one task: its placement (with the sleep timer of a
// sleeping task), its mutable state, and its program's state.
func (k *Kernel) snapTaskState(s *snap.Stream, t *Task) {
	p := &k.place[t.ID]
	s.U8(&p.kind)
	switch p.kind {
	case placeLock, placeCond, placeBarrier:
		snap.Int(s, &p.obj)
		fallthrough
	case placeRunq:
		snap.Int(s, &p.slot)
	case placeSleep:
		t.vcpu.wheel.snapTimer(s, &t.sleepTimer, t.sleepFireFn)
	}
	if s.Decoding() {
		k.seat(s, t, p)
	}
	t.rng.Snap(s)
	snap.Int(s, &t.remaining)
	snap.Int(s, &t.startedAt)
	snap.Int(s, &t.finishedAt)
	ps, ok := t.prog.(ProgramState)
	if !ok {
		s.Failf("guest: task %q runs a %T, which does not implement ProgramState; snapshot requires struct programs", t.Name, t.prog)
		return
	}
	ps.SnapState(s)
}

// --- task placement ----------------------------------------------------------

// A task record opens with its placement, the one place the task is, which
// fixes its state. A listed task names its slot in its vCPU's run queue, or
// the object and slot of a lock, cond or barrier waiter list.
const (
	placeDone    = iota // finished
	placeRunning        // its vCPU's current task
	placeSleep          // asleep; the sleep timer's coordinates follow
	placeIO             // waiting for the one I/O request that names it
	placeRunq
	placeLock
	placeCond
	placeBarrier
)

// listNames names the list kinds' owners in errors.
var listNames = [...]string{"the run queue of vCPU", "lock", "cond", "barrier"}

// placement is where one task is: a kind, and for a listed task its list's
// ordinal and its slot. Decoding counts an I/O wait's requests in slot.
type placement struct {
	kind      uint8
	obj, slot int
}

// eachList calls fn on every task list: each vCPU's run queue, then the
// waiter lists of the locks, conds and barriers, by registry ordinal n.
func (k *Kernel) eachList(fn func(kind uint8, n int, list *[]*Task)) {
	for n, v := range k.vcpus {
		fn(placeRunq, n, &v.runq)
	}
	for n, l := range k.locks {
		fn(placeLock, n, &l.waiters)
	}
	for n, c := range k.conds {
		fn(placeCond, n, &c.waiters)
	}
	for n, b := range k.barriers {
		fn(placeBarrier, n, &b.waiting)
	}
}

// placeTasks sizes the placement scratch to the task registry. Encoding
// fills it — a listed task by its list, any other by its state, where a
// blocked task with no sleep pending waits for I/O — and decoding empties
// every list for the task records to refill.
func (k *Kernel) placeTasks(decoding bool) {
	k.place = slices.Grow(k.place[:0], len(k.tasks))[:len(k.tasks)]
	for i, t := range k.tasks {
		k.place[i] = placement{kind: placeIO}
		switch {
		case decoding:
		case t.state == TaskDone:
			k.place[i].kind = placeDone
		case t.state == TaskRunning:
			k.place[i].kind = placeRunning
		case t.sleepTimer.Pending():
			k.place[i].kind = placeSleep
		}
	}
	k.eachList(func(kind uint8, n int, list *[]*Task) {
		if decoding {
			clear(*list)
			*list = (*list)[:0]
		}
		for i, t := range *list {
			k.place[t.ID] = placement{kind, n, i}
		}
	})
}

// seat puts a decoded task where its placement says and sets its state; a
// runnable task joins its own vCPU's run queue. checkPlacement sorts slots.
func (k *Kernel) seat(s *snap.Stream, t *Task, p *placement) {
	t.state = TaskBlocked
	switch p.kind {
	case placeDone:
		t.state = TaskDone
	case placeRunning:
		t.state = TaskRunning
		if cur := t.vcpu.current; cur != nil {
			s.Failf("guest: snapshot runs tasks %d and %d on vCPU %d", cur.ID, t.ID, t.vcpu.id)
		}
		t.vcpu.current = t
	case placeSleep, placeIO:
	case placeRunq:
		t.state, p.obj = TaskRunnable, t.vcpu.id
		fallthrough
	case placeLock, placeCond, placeBarrier:
		var list *[]*Task
		k.eachList(func(kind uint8, n int, l *[]*Task) {
			if kind == p.kind && n == p.obj {
				list = l
			}
		})
		if list == nil {
			s.Failf("guest: snapshot places task %d on unknown %s %d", t.ID, listNames[p.kind-placeRunq], p.obj)
			return
		}
		*list = append(*list, t)
	default:
		s.Failf("guest: snapshot task %d has unknown placement %d", t.ID, p.kind)
	}
}

// checkPlacement orders the rebuilt lists by slot and refuses placements
// the run loop never produces: a slot held twice or left empty, a done lock
// holder, lock waiters with no holder to hand the lock on, a negative
// barrier party count, barrier waiters as many as its parties (arrive and
// detach release the barrier before that), an I/O wait that no request
// ends exactly once, and a request whose waiter does not wait for I/O. A
// queued or issued io-submit segment carries its request until the
// hypervisor submits it, and a device holds it until it is drained.
func (k *Kernel) checkPlacement(s *snap.Stream) {
	k.eachList(func(kind uint8, n int, list *[]*Task) {
		slot := func(t *Task) int { return k.place[t.ID].slot }
		slices.SortStableFunc(*list, func(a, b *Task) int { return cmp.Compare(slot(a), slot(b)) })
		for i, t := range *list {
			if slot(t) != i {
				s.Failf("guest: snapshot holds slot %d of %s %d twice, or leaves slot %d empty", slot(t), listNames[kind-placeRunq], n, i)
			}
		}
	})
	for n, l := range k.locks {
		switch h := l.holder; {
		case h != nil && h.state == TaskDone:
			s.Failf("guest: snapshot lock %d is held by done task %d", n, h.ID)
		case h == nil && len(l.waiters) > 0:
			s.Failf("guest: snapshot lock %d has %d waiters and no holder", n, len(l.waiters))
		}
	}
	for n, b := range k.barriers {
		switch w := len(b.waiting); {
		case b.parties < 0:
			s.Failf("guest: snapshot barrier %d has %d parties", n, b.parties)
		case w > 0 && w >= b.parties:
			s.Failf("guest: snapshot barrier %d has %d waiters and %d parties", n, w, b.parties)
		}
	}
	carry := func(req *iodev.Request) {
		switch w := req.Waiter; {
		case w < 0:
		case k.place[w].kind != placeIO:
			s.Failf("guest: snapshot request names task %d, which does not wait for I/O", w)
		default:
			k.place[w].slot++
		}
	}
	for _, v := range k.vcpus {
		for _, seg := range v.queue {
			if seg.Req != nil {
				carry(seg.Req)
			}
		}
		if v.issued != nil && v.issued.Req != nil {
			carry(v.issued.Req)
		}
	}
	for _, d := range k.devices {
		d.EachRequest(carry)
	}
	for id, p := range k.place {
		if p.kind == placeIO && p.slot != 1 {
			s.Failf("guest: snapshot task %d waits for I/O that %d requests name", id, p.slot)
		}
	}
}
