package guest

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// forEachPending visits every queued timer in an unspecified order.
func (w *TimerWheel) forEachPending(fn func(t *SoftTimer)) {
	if w.buckets != nil {
		for lvl := 0; lvl < wheelLevels; lvl++ {
			for slot := 0; slot < wheelSlots; slot++ {
				for t := w.buckets[lvl][slot]; t != nil; t = t.next {
					fn(t)
				}
			}
		}
	}
}

// DigestState hashes the wheel's observable state: clock, counters,
// occupancy bitmaps, and every pending timer in Add order. Retained bucket
// and scratch capacity is excluded: it is deliberately recycled state. A
// freshly constructed wheel and a used-then-Reset wheel must digest
// identically.
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

// exerciseWheel drives a wheel through every structural path: levels 0
// to 3 and a Forever timer above them, cancels, cascades, partial advances,
// and late adds.
func exerciseWheel(w *TimerWheel, fired *int) []*SoftTimer {
	noop := func(sim.Time) { *fired++ }
	j := w.Jiffy()
	var timers []*SoftTimer
	for _, dj := range []int64{1, 3, 63, 64, 512, 4096, 40_000, 300_000, 2_000_000, 3_000_000, 5_000_000} {
		t := &SoftTimer{Deadline: sim.Time(dj) * j, Fire: noop}
		w.Add(t)
		timers = append(timers, t)
	}
	forever := &SoftTimer{Deadline: sim.Forever, Fire: noop}
	w.Add(forever)
	timers = append(timers, forever)
	// Cancel a few from different levels.
	w.Cancel(timers[2])
	w.Cancel(timers[5])
	w.Cancel(timers[10])
	// Advance partway: fires the early timers, cascades some buckets.
	w.AdvanceTo(700 * j)
	// Late add into an already-processed region.
	late := &SoftTimer{Deadline: 2 * j, Fire: noop}
	w.Add(late)
	timers = append(timers, late)
	return timers
}

// TestWheelResetDigestMatchesFresh is the reset-correctness audit for
// TimerWheel.Reset: a heavily used wheel, once Reset, must be digest-
// identical to a freshly constructed wheel — no clock, counter, bitmap, or
// bucket residue.
func TestWheelResetDigestMatchesFresh(t *testing.T) {
	jiffy := sim.PeriodFromHz(250)
	for _, resetJiffy := range []sim.Time{jiffy, sim.Millisecond} {
		used := NewTimerWheel(jiffy)
		var fired int
		exerciseWheel(used, &fired)
		if fired == 0 {
			t.Fatal("exercise fired nothing; the audit would be vacuous")
		}
		used.Reset(resetJiffy)

		fresh := NewTimerWheel(resetJiffy)
		if got, want := used.DigestState(), fresh.DigestState(); got != want {
			t.Fatalf("reset(%v) wheel digest %v != fresh digest %v", resetJiffy, got, want)
		}

		// Behavioural follow-up: identical adds after reset behave like a
		// fresh wheel.
		var a, b int
		ta := &SoftTimer{Deadline: 5 * resetJiffy, Fire: func(sim.Time) { a++ }}
		tb := &SoftTimer{Deadline: 5 * resetJiffy, Fire: func(sim.Time) { b++ }}
		used.Add(ta)
		fresh.Add(tb)
		if used.DigestState() != fresh.DigestState() {
			t.Fatalf("reset(%v) wheel diverged from fresh after one add", resetJiffy)
		}
		used.AdvanceTo(10 * resetJiffy)
		fresh.AdvanceTo(10 * resetJiffy)
		if a != 1 || b != 1 {
			t.Fatalf("post-reset fire counts: used=%d fresh=%d, want 1,1", a, b)
		}
	}
}

// TestSegmentPoolZeroed is the reset audit for the segment pool: every
// segment sitting in the free pool must be the zero value, retaining no
// request, device, or owner references from its previous life.
func TestSegmentPoolZeroed(t *testing.T) {
	e, k := newTestKernel(t, core.DynticksIdle, 1)
	k.cfg.AdaptiveSpin = 2 * sim.Microsecond // exercise the lock-spin owner fields
	v := k.vcpus[0]
	l := k.NewLock("pool-audit")
	k.Spawn("holder", 0, Steps(Acquire(l), Compute(50*sim.Microsecond), Release(l), Done()))
	k.Spawn("contender", 0, Steps(Compute(sim.Microsecond), Acquire(l), Release(l), Done()))
	v.Boot()
	m := newMiniExec(e, v)
	m.runUntilTasksDone(t)
	// Drain the issued segment back into the pool too.
	v.Next()

	if len(k.segFree) == 0 {
		t.Fatal("segment pool empty after a run; audit is vacuous")
	}
	for i, s := range k.segFree {
		if s == nil {
			continue
		}
		if *s != (Segment{}) {
			t.Fatalf("pooled segment %d retains state: %+v", i, *s)
		}
	}
}

// TestSegmentPoolSizedByUse pins that the segment pool and a vCPU's queue
// grow by what the vCPU holds at once, not by a worst-case slab: after a
// run that contends a lock, sleeps and ticks, a 1-vCPU kernel owns at most
// 16 segments across its pool and its queue's capacity.
func TestSegmentPoolSizedByUse(t *testing.T) {
	e, k := newTestKernel(t, core.Periodic, 1)
	k.cfg.AdaptiveSpin = 2 * sim.Microsecond
	v := k.vcpus[0]
	l := k.NewLock("sized")
	k.Spawn("holder", 0, Steps(Acquire(l), Compute(50*sim.Microsecond), Release(l),
		Sleep(3*sim.Millisecond), Compute(9*sim.Millisecond), Done()))
	k.Spawn("contender", 0, Steps(Compute(sim.Microsecond), Acquire(l), Release(l),
		Sleep(sim.Millisecond), Done()))
	v.Boot()
	newMiniExec(e, v).runUntilTasksDone(t)
	v.Next()

	owned := len(k.segFree) + len(v.queue)
	if owned == 0 {
		t.Fatal("no segment pooled or queued after a run; check is vacuous")
	}
	if held := owned + cap(v.queue); held > 16 {
		t.Errorf("kernel holds %d pooled or queued segments and %d queue slots (%d in all), want at most 16",
			owned, cap(v.queue), held)
	}
}

// buildSnapshotScenario constructs the fixture used by the kernel
// round-trip tests: two tasks on one vCPU contending a lock (with adaptive
// spin), sleeping, and syncing on a barrier. Construction is deterministic,
// so calling it twice yields structurally identical kernels.
func buildSnapshotScenario(t *testing.T) (*sim.Engine, *Kernel, *miniExec) {
	t.Helper()
	e := sim.NewEngine(99)
	cfg := DefaultConfig()
	cfg.Mode = core.DynticksIdle
	cfg.AdaptiveSpin = 3 * sim.Microsecond
	k, err := NewKernel(e, hw.DefaultCostModel(), cfg, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	k.AddVCPU()
	v := k.vcpus[0]
	l := k.NewLock("l0")
	b := k.NewBarrier("b0", 2)
	k.Spawn("t0", 0, Steps(
		Acquire(l), Compute(80*sim.Microsecond), Release(l),
		Sleep(5*sim.Millisecond), JoinBarrier(b), Done()))
	k.Spawn("t1", 0, Steps(
		Compute(10*sim.Microsecond), Acquire(l), Release(l),
		Sleep(2*sim.Millisecond), JoinBarrier(b), Done()))
	v.Boot()
	return e, k, newMiniExec(e, v)
}

// saveWorld serializes engine + kernel + the mini-exec's deadline timer —
// the full state of the single-vCPU fixture.
func saveWorld(t *testing.T, e *sim.Engine, k *Kernel, m *miniExec) []byte {
	t.Helper()
	var enc snap.Encoder
	s := snap.NewWriter(&enc)
	e.Snap(s)
	m.timer.Snap(s)
	k.Snap(s)
	if err := s.Err(); err != nil {
		t.Fatalf("kernel save: %v", err)
	}
	return enc.Bytes()
}

func loadWorld(t *testing.T, bytes []byte, e *sim.Engine, k *Kernel, m *miniExec) {
	t.Helper()
	dec := snap.NewDecoder(bytes)
	s := snap.NewReader(dec)
	e.Snap(s)
	m.timer.Snap(s)
	k.Snap(s)
	if err := s.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("%d bytes left over after load", dec.Remaining())
	}
}

// TestKernelSaveLoadByteIdentity snapshots the fixture at every segment
// boundary of its whole run and checks the restore-then-resave bytes match
// the original snapshot exactly. This sweeps the encoder across queued
// run/MSR/HLT segments, in-flight spin probes, blocked sleepers with
// pending wheel timers, barrier waits, and the end-of-run state.
func TestKernelSaveLoadByteIdentity(t *testing.T) {
	e, k, m := buildSnapshotScenario(t)
	for step := 0; step < 400 && k.LiveTasks() > 0; step++ {
		s := m.runOne()
		if s.Kind == SegHLT {
			if !m.timer.Armed() {
				t.Fatal("halted forever")
			}
			e.RunUntil(m.timer.Deadline())
		}
		bytes := saveWorld(t, e, k, m)

		e2 := sim.NewEngine(99)
		cfg := k.cfg
		k2, err := NewKernel(e2, hw.DefaultCostModel(), cfg, &metrics.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		k2.AddVCPU()
		l2 := k2.NewLock("l0")
		b2 := k2.NewBarrier("b0", 2)
		k2.Spawn("t0", 0, Steps(
			Acquire(l2), Compute(80*sim.Microsecond), Release(l2),
			Sleep(5*sim.Millisecond), JoinBarrier(b2), Done()))
		k2.Spawn("t1", 0, Steps(
			Compute(10*sim.Microsecond), Acquire(l2), Release(l2),
			Sleep(2*sim.Millisecond), JoinBarrier(b2), Done()))
		m2 := newMiniExec(e2, k2.vcpus[0])
		loadWorld(t, bytes, e2, k2, m2)

		again := saveWorld(t, e2, k2, m2)
		if string(again) != string(bytes) {
			t.Fatalf("step %d: restore-then-resave bytes differ from original snapshot", step)
		}
	}
	if k.LiveTasks() != 0 {
		t.Fatal("fixture never completed")
	}
}

// TestKernelRestoreContinuesIdentically restores mid-run and runs both
// worlds to completion: dispatch behaviour, task runtimes, and the final
// engine digests must coincide.
func TestKernelRestoreContinuesIdentically(t *testing.T) {
	e, k, m := buildSnapshotScenario(t)
	// Run deep enough that a sleeper is pending and the lock was contended.
	for i := 0; i < 25; i++ {
		if s := m.runOne(); s.Kind == SegHLT {
			if !m.timer.Armed() {
				t.Fatal("halted forever")
			}
			e.RunUntil(m.timer.Deadline())
		}
	}
	bytes := saveWorld(t, e, k, m)
	prefix := len(m.msrLog) // dst only replays the post-snapshot tail

	e2, k2, m2 := buildSnapshotScenario(t)
	loadWorld(t, bytes, e2, k2, m2)

	finish := func(e *sim.Engine, k *Kernel, m *miniExec) {
		for i := 0; i < 4000 && k.LiveTasks() > 0; i++ {
			if s := m.runOne(); s.Kind == SegHLT {
				if !m.timer.Armed() {
					t.Fatal("halted forever")
				}
				e.RunUntil(m.timer.Deadline())
			}
		}
		if k.LiveTasks() != 0 {
			t.Fatal("run never completed")
		}
	}
	finish(e, k, m)
	finish(e2, k2, m2)

	if d1, d2 := e.DigestState(), e2.DigestState(); d1 != d2 {
		t.Fatalf("final engine digests differ: %v vs %v", d1, d2)
	}
	for i := range k.tasks {
		if k.tasks[i].Runtime() != k2.tasks[i].Runtime() {
			t.Fatalf("task %d runtime %v != %v", i, k.tasks[i].Runtime(), k2.tasks[i].Runtime())
		}
	}
	tail := m.msrLog[prefix:]
	if len(tail) != len(m2.msrLog) {
		t.Fatalf("MSR write counts diverged: %d vs %d", len(tail), len(m2.msrLog))
	}
	for i := range m2.msrLog {
		if tail[i] != m2.msrLog[i] {
			t.Fatalf("MSR write %d: %v vs %v", i, tail[i], m2.msrLog[i])
		}
	}
}

// TestSaveRejectsClosurePrograms pins the contract that checkpointable
// scenarios must use struct programs.
func TestSaveRejectsClosurePrograms(t *testing.T) {
	_, k := newTestKernel(t, core.DynticksIdle, 1)
	k.Spawn("closure", 0, ProgramFunc(func(*StepCtx) Step { return Done() }))
	var enc snap.Encoder
	if err := snap.Encode(&enc, k); err == nil {
		t.Fatal("Snap accepted a ProgramFunc task")
	}
}

// TestStepsProgramState round-trips the replay cursor.
func TestStepsProgramState(t *testing.T) {
	p := Steps(Compute(1), Compute(2), Done()).(*stepsProgram)
	p.Next(nil)
	var enc snap.Encoder
	w := snap.NewWriter(&enc)
	if p.SnapState(w); w.Err() != nil {
		t.Fatal(w.Err())
	}

	q := Steps(Compute(1), Compute(2), Done()).(*stepsProgram)
	r := snap.NewReader(snap.NewDecoder(enc.Bytes()))
	if q.SnapState(r); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if q.i != 1 {
		t.Fatalf("cursor = %d, want 1", q.i)
	}
	bad := snap.NewReader(snap.NewDecoder(nil))
	if q.SnapState(bad); bad.Err() == nil {
		t.Fatal("truncated state accepted")
	}
	var far snap.Encoder
	far.U32(7)
	farStream := snap.NewReader(snap.NewDecoder(far.Bytes()))
	if q.SnapState(farStream); farStream.Err() == nil {
		t.Fatal("cursor past the step sequence accepted")
	}
}

// newReaderWorld builds a one-vCPU kernel with an attached NVMe device and
// one task that issues a blocking read; the vCPU is booted but not run.
func newReaderWorld(t *testing.T) (*sim.Engine, *Kernel, *miniExec) {
	t.Helper()
	e, k := newTestKernel(t, core.DynticksIdle, 1)
	dev, err := iodev.New(e, "d0", iodev.NVMe(), hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	k.AttachDevice(dev)
	k.Spawn("reader", 0, Steps(Read(dev, 4096, false), Done()))
	k.vcpus[0].Boot()
	return e, k, newMiniExec(e, k.vcpus[0])
}

// TestSnapshotRejectsUnknownIOWaiter checks that an in-service request
// naming a task the kernel does not have is refused with an error in both
// directions, never restored as a request nobody waits on.
func TestSnapshotRejectsUnknownIOWaiter(t *testing.T) {
	e, k, m := newReaderWorld(t)
	var req *iodev.Request
	for i := 0; i < 100 && !m.hlt; i++ {
		if s := m.runOne(); s.Kind == SegIOSubmit {
			req = s.Req
		}
	}
	if req == nil || k.devices[0].Inflight() != 1 || req.Waiter != 0 {
		t.Fatal("fixture: the reader's blocking read is not in service")
	}
	// Control: the world as run restores.
	e2, k2, m2 := newReaderWorld(t)
	loadWorld(t, saveWorld(t, e, k, m), e2, k2, m2)

	req.Waiter = len(k.tasks)
	want := "waited on by task 1 of 1"
	var enc snap.Encoder
	s := snap.NewWriter(&enc)
	e.Snap(s)
	m.timer.Snap(s)
	k.Snap(s)
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("encode err = %v, want one containing %q", err, want)
	}
	// The failed encode still wrote every field; decode those bytes.
	e3, k3, m3 := newReaderWorld(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decode panicked: %v", r)
		}
	}()
	d := snap.NewReader(snap.NewDecoder(enc.Bytes()))
	e3.Snap(d)
	m3.timer.Snap(d)
	k3.Snap(d)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("decode err = %v, want one containing %q", err, want)
	}
}

// rngOffset locates task's RNG state in buf. It directly follows the
// task's placement and is unique to the task, so it finds the task record.
func rngOffset(t *testing.T, buf []byte, task *Task) int {
	t.Helper()
	var enc snap.Encoder
	task.rng.Snap(snap.NewWriter(&enc))
	if n := bytes.Count(buf, enc.Bytes()); n != 1 {
		t.Fatalf("task %d's RNG state occurs %d times in the snapshot, want 1", task.ID, n)
	}
	return bytes.Index(buf, enc.Bytes())
}

// offsets locates records in a kernel snapshot for a corruption to target.
type offsets struct {
	rng     func(task int) int    // just past the task's placement record
	parties func(barrier int) int // the barrier's party count
}

// partiesOffset returns where barrier n's party count sits in a kernel
// snapshot: it encodes the guest section's leading records the way
// Kernel.Snap writes them, and finds them in buf. Any drift from that
// layout fails the lookup rather than retargeting the corruption.
func partiesOffset(t *testing.T, buf []byte, k *Kernel, n int) int {
	t.Helper()
	var enc snap.Encoder
	s := snap.NewWriter(&enc)
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
	for _, b := range k.barriers[:n] {
		snap.Int(s, &b.parties)
		s.U64(&b.cycles)
	}
	if c := bytes.Count(buf, enc.Bytes()); c != 1 {
		t.Fatalf("the guest section's leading records occur %d times in the snapshot, want 1", c)
	}
	return bytes.Index(buf, enc.Bytes()) + len(enc.Bytes())
}

// TestSnapshotRejectsWheelClockPastNever restores a wheel clock at the
// never jiffy, which AdvanceTo never reaches: decoding must refuse it.
func TestSnapshotRejectsWheelClockPastNever(t *testing.T) {
	w := NewTimerWheel(sim.Millisecond)
	w.curJiff = w.maxJiff
	var enc snap.Encoder
	w.snapClock(snap.NewWriter(&enc))
	s := snap.NewReader(snap.NewDecoder(enc.Bytes()))
	NewTimerWheel(sim.Millisecond).snapClock(s)
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "wheel clock at jiffy") {
		t.Fatalf("decode err = %v, want a refused wheel clock", err)
	}
}

// TestSnapshotRejectsMisplacedTask corrupts task placements so that the
// rebuilt lists or I/O waits contradict each other or the lock or barrier
// records. Each case must fail to decode with an error naming the
// contradiction, and the same world uncorrupted must decode.
func TestSnapshotRejectsMisplacedTask(t *testing.T) {
	// Three tasks queued on one vCPU at run-queue slots 0, 1 and 2; the
	// first takes a lock.
	queued := func(t *testing.T) (*sim.Engine, *Kernel, *miniExec) {
		e, k := newTestKernel(t, core.DynticksIdle, 1)
		l := k.NewLock("l")
		k.Spawn("a", 0, Steps(Acquire(l), Compute(sim.Millisecond), Release(l)))
		k.Spawn("b", 0, Steps(Compute(sim.Millisecond)))
		k.Spawn("c", 0, Steps(Compute(sim.Millisecond)))
		k.vcpus[0].Boot()
		return e, k, newMiniExec(e, k.vcpus[0])
	}
	// Two of a barrier's three parties wait on it while the third computes.
	joined := func(t *testing.T) (*sim.Engine, *Kernel, *miniExec) {
		e, k := newTestKernel(t, core.DynticksIdle, 1)
		b := k.NewBarrier("b", 3)
		k.Spawn("a", 0, Steps(JoinBarrier(b), Done()))
		k.Spawn("b", 0, Steps(JoinBarrier(b), Done()))
		k.Spawn("c", 0, Steps(Compute(10*sim.Millisecond), JoinBarrier(b), Done()))
		k.vcpus[0].Boot()
		return e, k, newMiniExec(e, k.vcpus[0])
	}
	twoWaiting := func(k *Kernel) bool { return k.barriers[0].Waiting() == 2 }
	// One task sleeps 50 ms on a 4 ms jiffy: its timer, the wheel's only
	// one, fires at jiffy 13 with seq 0. The sleeper record ends with the
	// timer's deadline, fire jiffy and seq, just before the task's RNG.
	slept := func(t *testing.T) (*sim.Engine, *Kernel, *miniExec) {
		e, k := newTestKernel(t, core.DynticksIdle, 1)
		k.Spawn("a", 0, Steps(Sleep(50*sim.Millisecond), Done()))
		k.vcpus[0].Boot()
		return e, k, newMiniExec(e, k.vcpus[0])
	}
	asleep := func(k *Kernel) bool { return k.tasks[0].sleepTimer.Pending() }
	var slot0, slot2, two, minusOne, pastNever, seq1 snap.Encoder
	slot0.I64(0)
	slot2.I64(2)
	two.I64(2)
	minusOne.I64(-1)
	pastNever.I64(int64(sim.Forever/DefaultConfig().TickPeriod()) + 1)
	seq1.U64(1)
	for _, tc := range []struct {
		name, want string
		build      func(*testing.T) (*sim.Engine, *Kernel, *miniExec)
		ready      func(k *Kernel) bool // run the fixture until it holds
		corrupt    func(buf []byte, at offsets) []byte
	}{
		{"two tasks claim one run-queue slot", "holds slot 0 of the run queue of vCPU 0 twice", queued, nil,
			func(b []byte, at offsets) []byte {
				copy(b[at.rng(1)-8:], slot0.Bytes())
				return b
			}},
		{"gap in a rebuilt run queue", "holds slot 2 of the run queue of vCPU 0 twice, or leaves slot 1 empty", queued, nil,
			func(b []byte, at offsets) []byte {
				copy(b[at.rng(1)-8:], slot2.Bytes())
				return append(append(b[:at.rng(2)-9:at.rng(2)-9], placeDone), b[at.rng(2):]...)
			}},
		{"I/O wait no request names", "task 2 waits for I/O that 0 requests name", queued, nil,
			func(b []byte, at offsets) []byte {
				return append(append(b[:at.rng(2)-9:at.rng(2)-9], placeIO), b[at.rng(2):]...)
			}},
		{"request names a task not waiting for I/O", "request names task 0, which does not wait for I/O",
			newReaderWorld, func(k *Kernel) bool { return k.devices[0].Inflight() == 1 && k.vcpus[0].issued.Req == nil },
			func(b []byte, at offsets) []byte {
				b[at.rng(0)-1] = placeDone
				return b
			}},
		{"lock held by a done task", "lock 0 is held by done task 0", queued,
			func(k *Kernel) bool { return k.locks[0].holder == k.tasks[0] },
			func(b []byte, at offsets) []byte {
				b[at.rng(0)-1] = placeDone
				return b
			}},
		{"barrier waiters reach its parties", "barrier 0 has 2 waiters and 2 parties", joined, twoWaiting,
			func(b []byte, at offsets) []byte {
				copy(b[at.parties(0):], two.Bytes())
				return b
			}},
		{"negative barrier parties", "barrier 0 has -1 parties", joined, twoWaiting,
			func(b []byte, at offsets) []byte {
				copy(b[at.parties(0):], minusOne.Bytes())
				return b
			}},
		{"sleep timer fires before its deadline", "fires at jiffy 2, before its deadline 50.0002ms", slept, asleep,
			func(b []byte, at offsets) []byte {
				copy(b[at.rng(0)-16:], two.Bytes())
				return b
			}},
		{"sleep timer fires past the never jiffy", "past the never jiffy", slept, asleep,
			func(b []byte, at offsets) []byte {
				copy(b[at.rng(0)-16:], pastNever.Bytes())
				return b
			}},
		{"sleep timer seq not yet handed out", "has seq 1, wheel has handed out 1", slept, asleep,
			func(b []byte, at offsets) []byte {
				copy(b[at.rng(0)-8:], seq1.Bytes())
				return b
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, k, m := tc.build(t)
			for i := 0; tc.ready != nil && !tc.ready(k); i++ {
				if i == 100 {
					t.Fatal("fixture never reached the state to corrupt")
				}
				m.runOne()
			}
			decode := func(buf []byte) error {
				e2, k2, m2 := tc.build(t)
				s := snap.NewReader(snap.NewDecoder(buf))
				e2.Snap(s)
				m2.timer.Snap(s)
				k2.Snap(s)
				return s.Err()
			}
			buf := saveWorld(t, e, k, m)
			if err := decode(buf); err != nil {
				t.Fatalf("uncorrupted world refused: %v", err)
			}
			bad := tc.corrupt(append([]byte(nil), buf...), offsets{
				rng:     func(id int) int { return rngOffset(t, buf, k.tasks[id]) },
				parties: func(n int) int { return partiesOffset(t, buf, k, n) },
			})
			if err := decode(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
