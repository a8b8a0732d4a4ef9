package guest

// Checkpoint/restore of the guest kernel: tasks, vCPUs, synchronization
// objects, timer wheels, and attached devices. Cross-object references are
// plain data moved as identities: a segment's owners and a request's
// waiter as task ids and lock registry ordinals, which is why the kernel
// registers sync objects in creation order. Closures are never serialized;
// the one the guest keeps (a task's sleep callback) is pre-bound by Spawn.
// The segment pool is drained, not saved: pooled segments are dead state.
//
// Decoding targets a kernel freshly rebuilt from the same scenario
// specification: identical vCPU count, task spawn order, sync-object
// creation order, and device attachment order. Everything mutable is then
// overwritten from the snapshot; pending timers and in-service I/O re-arm
// their engine events at the original (when, seq) coordinates.

import (
	"slices"
	"sort"

	"paratick/internal/core"
	"paratick/internal/iodev"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// --- timer wheel -------------------------------------------------------------

// snapClock moves the wheel's scalar state. Bucket contents are not
// enumerated: every timer living in a scenario wheel is a task sleep timer,
// moved (with its placement) by the task that owns it. Decoding requires an
// empty wheel.
func (w *TimerWheel) snapClock(s *snap.Stream) {
	jiffy := w.jiffy
	snap.Int(s, &jiffy)
	if jiffy != w.jiffy {
		s.Failf("guest: snapshot wheel jiffy %v does not match configured %v", jiffy, w.jiffy)
	}
	if s.Decoding() {
		if w.count != 0 {
			s.Failf("guest: restore into a wheel holding %d timers", w.count)
		}
		w.nextOK = false
	}
	s.I64(&w.curJiff)
	s.U64(&w.seq)
	if w.curJiff < 0 {
		s.Failf("guest: snapshot wheel clock at jiffy %d", w.curJiff)
	}
}

// snapTimer moves t's pending placement: presence, deadline, and the fire
// jiffy and Add-order seq assigned at the original Add. Decoding re-queues
// the timer on w, bound to fire, with that placement identity; the wheel's
// clock must already be restored, and pending timers always satisfy
// fireJiff > curJiff.
func (w *TimerWheel) snapTimer(s *snap.Stream, t *SoftTimer, fire func(sim.Time)) {
	pending := t.Pending()
	s.Bool(&pending)
	if s.Decoding() {
		*t = SoftTimer{}
	}
	if !pending {
		return
	}
	snap.Int(s, &t.Deadline)
	s.I64(&t.fireJiff)
	s.U64(&t.seq)
	if !s.Decoding() || s.Err() != nil {
		return
	}
	if t.fireJiff <= w.curJiff {
		s.Failf("guest: restored timer fires at jiffy %d, wheel already at %d", t.fireJiff, w.curJiff)
		return
	}
	t.Fire = fire
	w.insert(t)
	if w.nextOK && t.fireJiff < w.nextJiff {
		w.nextJiff = t.fireJiff
	}
}

// forEachPending visits every queued timer (buckets and overflow) in an
// unspecified order.
func (w *TimerWheel) forEachPending(fn func(t *SoftTimer)) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for slot := 0; slot < wheelSlots; slot++ {
			for _, t := range w.buckets[lvl][slot] {
				fn(t)
			}
		}
	}
	for _, t := range w.overflow {
		fn(t)
	}
}

// DigestState hashes the wheel's observable state: clock, counters,
// occupancy bitmaps, and every pending timer in Add order. Cached
// next-expiry values and retained bucket capacity are excluded — both are
// derived or deliberately recycled state. A freshly constructed wheel and
// a used-then-Reset wheel must digest identically.
func (w *TimerWheel) DigestState() snap.Digest {
	var enc snap.Encoder
	enc.Section("wheel-digest")
	enc.I64(int64(w.jiffy))
	enc.I64(w.maxJiff)
	enc.I64(w.curJiff)
	enc.I64(int64(w.count))
	enc.U64(w.seq)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		enc.U64(w.occ[lvl])
	}
	var pending []*SoftTimer
	w.forEachPending(func(t *SoftTimer) { pending = append(pending, t) })
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	enc.U32(uint32(len(pending)))
	for _, t := range pending {
		enc.I64(int64(t.Deadline))
		enc.I64(t.fireJiff)
		enc.U64(t.seq)
	}
	return snap.HashBytes(enc.Bytes())
}

// --- segments ----------------------------------------------------------------

// A segment's owners move behind a byte naming what completing it means.
const (
	segDoneNil      = 0 // anonymous work: no owners
	segDoneTaskRun  = 1 // a task run: ownerTask
	segDoneLockSpin = 2 // an optimistic spin: ownerLock and ownerTask
)

// snapSegment moves one segment. Decoding passes a nil seg and receives a
// fresh pooled segment; it rejects segments the hypervisor could not
// execute (unknown kind, an IPI to a vCPU that does not exist, an io-submit
// without its device and request).
func (k *Kernel) snapSegment(s *snap.Stream, seg *Segment) *Segment {
	if seg == nil {
		seg = k.acquireSeg()
	}
	snap.Byte(s, &seg.Kind)
	if seg.Kind < SegRun || seg.Kind > SegHypercall {
		s.Failf("guest: snapshot segment has unknown kind %d", seg.Kind)
	}
	s.String(&seg.Label)
	snap.Int(s, &seg.Duration)
	s.Bool(&seg.Kernel)
	s.Bool(&seg.Spin)
	snap.Int(s, &seg.Deadline)
	hasReq := seg.Req != nil
	s.Bool(&hasReq)
	if hasReq {
		if seg.Req == nil {
			seg.Req = new(iodev.Request)
		}
		seg.Req.Snap(s, len(k.vcpus), len(k.tasks))
	}
	dev := slices.Index(k.devices, seg.Dev)
	if seg.Dev != nil && dev < 0 {
		s.Failf("guest: segment %v references an unattached device", seg)
	}
	snap.Int(s, &dev)
	switch {
	case dev < -1 || dev >= len(k.devices):
		s.Failf("guest: snapshot references device %d of %d", dev, len(k.devices))
	case dev >= 0:
		seg.Dev = k.devices[dev]
	}
	snap.Int(s, &seg.Target)
	if seg.Target < 0 || seg.Target >= len(k.vcpus) {
		s.Failf("guest: snapshot segment targets vCPU %d of %d", seg.Target, len(k.vcpus))
	}
	snap.Int(s, &seg.HKind)
	s.I64(&seg.HArg)
	if seg.Kind == SegIOSubmit && (seg.Dev == nil || seg.Req == nil) {
		s.Failf("guest: snapshot io-submit segment lacks its device or request")
	}
	k.snapOwners(s, seg)
	return seg
}

// snapOwners moves the segment's owners as their kind and ids.
func (k *Kernel) snapOwners(s *snap.Stream, seg *Segment) {
	var kind uint8 = segDoneNil
	switch {
	case seg.ownerLock != nil:
		kind = segDoneLockSpin
	case seg.ownerTask != nil:
		kind = segDoneTaskRun
	}
	s.U8(&kind)
	switch kind {
	case segDoneNil:
	case segDoneTaskRun:
		k.snapTask(s, &seg.ownerTask)
		if seg.ownerTask == nil {
			s.Failf("guest: snapshot run segment completes no task")
		}
	case segDoneLockSpin:
		lock := -1
		if seg.ownerLock != nil {
			lock = seg.ownerLock.id
		}
		snap.Int(s, &lock)
		k.snapTask(s, &seg.ownerTask)
		if lock < 0 || lock >= len(k.locks) || seg.ownerTask == nil {
			s.Failf("guest: snapshot spin segment references lock %d of %d", lock, len(k.locks))
		} else if s.Decoding() {
			seg.ownerLock = k.locks[lock]
		}
	default:
		s.Failf("guest: unknown segment completion kind %d", kind)
	}
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

// snapTasks moves a task list by ID; every entry must name a task.
func (k *Kernel) snapTasks(s *snap.Stream, list *[]*Task) {
	for i := range snap.Slice(s, list) {
		if k.snapTask(s, &(*list)[i]); (*list)[i] == nil {
			s.Failf("guest: snapshot task list holds no task")
		}
	}
}

// --- kernel ------------------------------------------------------------------

// Issued returns the segment most recently handed to the hypervisor (nil
// when none is outstanding). The hypervisor uses it after a restore to
// re-link its in-flight segment pointer.
func (v *VCPU) Issued() *Segment { return v.issued }

// Snap moves the kernel's complete mutable state. The shared metrics
// counters are excluded (the hypervisor and guest write into one Counters
// object; its owner moves it once). Every spawned program must implement
// ProgramState. Decoding re-arms pending soft timers and device events at
// their original engine coordinates, so the engine's clock must already be
// restored.
func (k *Kernel) Snap(s *snap.Stream) {
	s.Section("guest")
	k.rng.Snap(s)
	s.Bool(&k.started)

	s.Len(len(k.locks), "guest locks")
	for _, l := range k.locks {
		k.snapTask(s, &l.holder)
		k.snapTasks(s, &l.waiters)
		s.U64(&l.acquisitions)
		s.U64(&l.contended)
	}
	s.Len(len(k.barriers), "guest barriers")
	for _, b := range k.barriers {
		snap.Int(s, &b.parties) // mutable: detach shrinks the party
		k.snapTasks(s, &b.waiting)
		s.U64(&b.cycles)
	}
	s.Len(len(k.conds), "guest conds")
	for _, c := range k.conds {
		lock := c.lock.id
		snap.Int(s, &lock)
		if lock != c.lock.id {
			s.Failf("guest: cond %q paired with lock %d in snapshot, %d in kernel", c.name, lock, c.lock.id)
		}
		k.snapTasks(s, &c.waiters)
		s.U64(&c.waits)
		s.U64(&c.signals)
	}

	s.Len(len(k.vcpus), "guest vCPUs")
	for _, v := range k.vcpus {
		k.snapVCPU(s, v)
	}

	s.Len(len(k.tasks), "guest tasks")
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
}

// snapVCPU moves one vCPU: policy state word, wheel clock, run state, run
// queue, and the queued and issued segments. Decoding first clears the
// rebuilt world's run state, returning its segments to the pool.
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
	armed := v.timerDeadline != sim.Forever
	s.Bool(&armed)
	snap.Int(s, &v.timerDeadline)
	if armed != (v.timerDeadline != sim.Forever) {
		s.Failf("guest: snapshot vCPU %d timer armed=%v disagrees with deadline %v", v.id, armed, v.timerDeadline)
	}
	s.Bool(&v.rcuPending)
	snap.Int(s, &v.rcuDeadline)
	snap.Int(s, &v.switchCount)
	snap.Int(s, &v.lastTickAt)
	k.snapTask(s, &v.current)
	k.snapTasks(s, &v.runq)
	for i := range snap.Slice(s, &v.queue) {
		v.queue[i] = k.snapSegment(s, v.queue[i])
	}
	issued := v.issued != nil
	s.Bool(&issued)
	if issued {
		v.issued = k.snapSegment(s, v.issued)
	}
}

// snapTaskState moves one task's mutable state, its sleep timer, and its
// program's state.
func (k *Kernel) snapTaskState(s *snap.Stream, t *Task) {
	snap.Byte(s, &t.state)
	if t.state < TaskRunnable || t.state > TaskDone {
		s.Failf("guest: snapshot task %d has invalid state %d", t.ID, t.state)
	}
	t.rng.Snap(s)
	snap.Int(s, &t.remaining)
	s.String(&t.blockReason)
	t.vcpu.wheel.snapTimer(s, &t.sleepTimer, t.sleepFireFn)
	snap.Int(s, &t.startedAt)
	snap.Int(s, &t.finishedAt)
	ps, ok := t.prog.(ProgramState)
	if !ok {
		s.Failf("guest: task %q runs a %T, which does not implement ProgramState; snapshot requires struct programs", t.Name, t.prog)
		return
	}
	ps.SnapState(s)
}
