package guest

import (
	"fmt"
	"slices"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/sim"
)

// VCPU is one virtual CPU of a guest kernel. It owns a run queue of tasks,
// the per-CPU timer wheel, and the tick-policy instance, and it emits the
// segment stream the hypervisor executes. It implements core.GuestVCPU.
type VCPU struct {
	//snap:skip back-pointer wiring, bound at attach time
	//reset:keep back-pointer bound at attach time, stable across reuse
	kernel *Kernel
	//snap:skip identity is implicit in the kernel's save order
	//reset:keep stable slot ordinal; vCPUs are recycled in attach order
	id     int
	policy core.TickPolicy

	// policyCache keeps one policy instance per mode so a pooled vCPU can
	// switch modes across runs without allocating; reset() installs (and
	// zeroes) the cached instance for the kernel's current mode.
	//snap:skip pool of per-mode policy instances; live policy state is saved
	policyCache [3]core.TickPolicy

	queue []*Segment
	//snap:skip derived: rebuilt from the task records' placements
	runq []*Task
	//snap:skip derived: rebuilt from the task records' placements
	current *Task

	idle        bool
	needResched bool
	booted      bool

	wheel *TimerWheel

	// timerDeadline is the guest-visible deadline-timer state, sim.Forever
	// when disarmed; the authoritative hardware timer lives in the
	// hypervisor and is programmed by SegMSRWrite segments.
	timerDeadline sim.Time

	// RCU model: a pending grace period requires tick service.
	rcuPending  bool
	rcuDeadline sim.Time
	switchCount int

	// lastTickAt is when RunTickWork last ran, feeding the tick-interval
	// histogram; -1 until the first tick (time 0 is a valid tick time).
	lastTickAt sim.Time

	// issued is the segment most recently handed to the hypervisor; it is
	// returned to the kernel's pool when the next segment is fetched (by
	// then the hypervisor has fully consumed it — returned, executed, or
	// aborted it).
	issued *Segment

	// stepCtx is the reusable context handed to task programs; programs
	// read it during Next and must not retain it.
	//snap:skip scratch: rebuilt for every program step
	stepCtx StepCtx
}

// ID returns the vCPU index within its VM.
func (v *VCPU) ID() int { return v.id }

// Kernel returns the owning guest kernel.
func (v *VCPU) Kernel() *Kernel { return v.kernel }

// Policy returns the vCPU's tick policy.
func (v *VCPU) Policy() core.TickPolicy { return v.policy }

// RunQueueLen returns the number of runnable (queued) tasks.
func (v *VCPU) RunQueueLen() int { return len(v.runq) }

// Current returns the running task, or nil.
func (v *VCPU) Current() *Task { return v.current }

// PendingSegments returns the number of queued segments (diagnostics).
func (v *VCPU) PendingSegments() int { return len(v.queue) }

// Wheel returns the vCPU's timer wheel.
func (v *VCPU) Wheel() *TimerWheel { return v.wheel }

// --- core.GuestVCPU implementation -----------------------------------------

// Now returns current simulated time.
func (v *VCPU) Now() sim.Time { return v.kernel.engine.Now() }

// TickPeriod returns the guest tick period.
func (v *VCPU) TickPeriod() sim.Time { return v.kernel.cfg.TickPeriod() }

// SetTimer writes the deadline timer: one TSC_DEADLINE MSR write that arms
// it at deadline, or disarms it for sim.Forever. Guest-visible state changes
// immediately; the write (and its VM exit) is a queued segment.
func (v *VCPU) SetTimer(deadline sim.Time) {
	k := v.kernel
	v.timerDeadline = deadline
	k.counters.TimerArms++
	work, op := "timer-program", "arm"
	if deadline == sim.Forever {
		work, op = "timer-stop", "stop"
	}
	v.addKernelSeg(k.cost.GuestTimerProgram, work)
	s := k.acquireSeg()
	s.Kind = SegMSRWrite
	s.Deadline = deadline
	s.Label = op
	v.queueSeg(s)
}

// TimerDeadline returns the guest-visible programmed deadline, or
// sim.Forever when the timer is disarmed.
func (v *VCPU) TimerDeadline() sim.Time { return v.timerDeadline }

// RunTickWork performs one scheduler tick: accounting/housekeeping cost,
// timer-wheel service (soft interrupts), RCU grace-period progress, and
// round-robin preemption.
func (v *VCPU) RunTickWork() {
	k := v.kernel
	k.counters.GuestTicks++
	// The handler's work varies run to run (pending soft timers, RCU,
	// accounting); the jitter also prevents unrealistic phase locking
	// between same-frequency timers of co-scheduled vCPUs.
	v.addKernelSeg(k.rng.Jitter(k.cost.GuestTickWork, 0.15), "tick-work")
	now := v.Now()
	if v.lastTickAt >= 0 {
		k.counters.TickInterval.Observe(now - v.lastTickAt)
	}
	v.lastTickAt = now
	v.serviceWheel(now)
	if v.rcuPending && now >= v.rcuDeadline {
		v.rcuPending = false
		v.rcuDeadline = sim.Forever
		v.addKernelSeg(500, "rcu-callbacks")
	}
	if preemptOnTick && v.current != nil && len(v.runq) > 0 {
		v.needResched = true
	}
}

// AddKernelWork charges the calibrated guest-kernel CPU time for label.
func (v *VCPU) AddKernelWork(label string) {
	v.addKernelSeg(v.kernel.defaultKernelCost(label), label)
}

// serviceWheel advances the timer wheel to now, firing due soft timers.
// This is the first wheel touch after an idle period: under dynticks or
// paratick a long idle gap spans millions of jiffies, and the bitmap-
// indexed wheel crosses them in O(occupied buckets), so both the tick
// handler and the wakeup-IPI path service the wheel unconditionally rather
// than rationing calls to what used to be an O(elapsed) walk.
func (v *VCPU) serviceWheel(now sim.Time) int {
	return v.wheel.AdvanceTo(now)
}

// NextSoftEvent returns the earliest pending soft timer or RCU deadline.
// Both tick policies evaluate this on every idle entry (Fig. 1b / Fig. 3c);
// the wheel answers from its occupancy bitmaps without scanning buckets.
func (v *VCPU) NextSoftEvent() sim.Time {
	next := v.wheel.NextExpiry()
	if v.rcuPending && v.rcuDeadline < next {
		next = v.rcuDeadline
	}
	return next
}

// TickRequired reports whether RCU needs the tick kept alive (Fig. 1b).
func (v *VCPU) TickRequired() bool { return v.rcuPending }

// Idle reports whether the vCPU is in the idle loop.
func (v *VCPU) Idle() bool { return v.idle }

// Hypercall queues a paravirtual call segment.
func (v *VCPU) Hypercall(kind core.HypercallKind, arg int64) {
	s := v.kernel.acquireSeg()
	s.Kind = SegHypercall
	s.HKind = kind
	s.HArg = arg
	s.Label = kind.String()
	v.queueSeg(s)
}

var _ core.GuestVCPU = (*VCPU)(nil)

// --- segment plumbing -------------------------------------------------------

//paratick:noalloc
func (v *VCPU) queueSeg(s *Segment) {
	v.queue = append(v.queue, s)
}

//paratick:noalloc
func (v *VCPU) addKernelSeg(d sim.Time, label string) {
	if d <= 0 {
		return
	}
	s := v.kernel.acquireSeg()
	s.Kind = SegRun
	s.Duration = d
	s.Kernel = true
	s.Label = label
	v.queueSeg(s)
}

// --- hypervisor-facing interface ---------------------------------------------

// ShouldHalt is the guest's need_resched check immediately before HLT: the
// hypervisor aborts a queued halt when work became runnable between the
// idle-entry decision and the HLT instruction (an interrupt handler ran in
// between) — the idle loop's lost-wakeup guard.
func (v *VCPU) ShouldHalt() bool {
	return v.idle && v.current == nil && len(v.runq) == 0
}

// Boot initializes tick management; the hypervisor calls it once before
// running the vCPU.
func (v *VCPU) Boot() {
	if v.booted {
		panic(fmt.Sprintf("guest: vCPU %d booted twice", v.id))
	}
	v.booted = true
	v.policy.OnBoot(v)
}

// Next returns the next segment to execute. The guest always has something
// to do: with no runnable tasks it emits the idle-entry sequence ending in
// SegHLT. The previously issued segment is recycled here: by the time the
// hypervisor asks for the next segment it has fully consumed the last one
// (returned — which banks any remaining work elsewhere — or, for the
// other kinds, executed or aborted).
func (v *VCPU) Next() *Segment {
	if v.issued != nil {
		v.kernel.releaseSeg(v.issued)
		v.issued = nil
	}
	for {
		if len(v.queue) > 0 {
			s := v.queue[0]
			v.queue = v.queue[0:copy(v.queue, v.queue[1:])]
			v.issued = s
			return s
		}
		v.schedule()
	}
}

// Return hands a run segment the hypervisor stopped back to the guest:
// remaining is the time it left unconsumed, 0 when it ran to completion.
// Cut-short task work is banked on the task (so the scheduler may switch
// away before resuming it), and cut-short kernel work — an optimistic spin
// included — is re-queued at the front. A completed segment acts on its
// owners: a task run ends the task's step, a spin re-probes its lock.
func (v *VCPU) Return(seg *Segment, remaining sim.Time) {
	if seg.Kind != SegRun {
		panic(fmt.Sprintf("guest: return of non-run segment %v", seg))
	}
	t, lock := seg.ownerTask, seg.ownerLock
	switch {
	case remaining > 0 && t != nil && lock == nil:
		t.remaining = remaining
	case remaining > 0:
		rest := v.kernel.acquireSeg()
		*rest = *seg
		rest.Duration = remaining
		v.queue = slices.Insert(v.queue, 0, rest)
	case lock != nil:
		v.spinDone(lock, t)
	case t != nil:
		t.remaining = 0
		v.stepComplete(t)
	}
}

// Deliver runs interrupt delivery for vec: the handler's segments are
// placed ahead of everything else queued on the vCPU. Handlers only append
// to the queue, so the appended tail is rotated to the front in place.
func (v *VCPU) Deliver(vec hw.Vector) {
	queued := len(v.queue)
	v.addKernelSeg(v.kernel.cost.GuestIRQEntry, "irq-entry")
	switch {
	case vec == hw.LocalTimerVector:
		// The one-shot deadline timer fired; guest-visible state reflects
		// that before the handler runs.
		v.timerDeadline = sim.Forever
		v.policy.OnTick(v)
	case vec == hw.ParatickVector:
		v.policy.OnVirtualTick(v)
	case vec == hw.RescheduleVector:
		// Wakeup IPI: the waker already queued the task; entry cost plus
		// wheel service (softirqs run on IRQ exit).
		v.serviceWheel(v.Now())
	case vec == hw.CallFuncVector:
		v.addKernelSeg(400, "call-func")
	default:
		v.deliverDeviceIRQ(vec)
	}
	slices.Reverse(v.queue[:queued])
	slices.Reverse(v.queue[queued:])
	slices.Reverse(v.queue)
}

// deliverDeviceIRQ drains completions destined for this vCPU from every
// attached device using the vector, waking the blocked submitters. Each
// request goes back to its device once its result has been read.
func (v *VCPU) deliverDeviceIRQ(vec hw.Vector) {
	k := v.kernel
	for _, d := range k.devices {
		if d.Vector() != vec {
			continue
		}
		for _, req := range d.DrainCompletedFor(v.id) {
			v.addKernelSeg(k.cost.GuestIOCompleteWork, "io-complete")
			if req.Write {
				k.counters.IOWrites++
				k.counters.IOBytesWritten += uint64(req.Bytes)
			} else {
				k.counters.IOReads++
				k.counters.IOBytesRead += uint64(req.Bytes)
			}
			waiter := req.Waiter
			d.Release(req)
			if waiter >= 0 {
				k.wake(k.tasks[waiter], v)
			}
		}
	}
}

// --- scheduler ---------------------------------------------------------------

// schedule refills the segment queue: it resolves idle transitions, picks
// tasks, and advances the current task's program.
func (v *VCPU) schedule() {
	if v.idle {
		if v.current == nil && len(v.runq) == 0 {
			// Spurious wakeup: re-evaluate idle entry (Fig. 1b / 3c) and
			// halt again.
			v.policy.OnIdleEnter(v)
			s := v.kernel.acquireSeg()
			s.Kind = SegHLT
			s.Label = "re-idle"
			v.queueSeg(s)
			return
		}
		v.exitIdle()
	}
	if v.needResched {
		v.needResched = false
		if v.current != nil && len(v.runq) > 0 {
			v.current.state = TaskRunnable
			v.runq = append(v.runq, v.current)
			v.current = nil
		}
	}
	if v.current == nil {
		if len(v.runq) == 0 {
			v.enterIdle()
			return
		}
		next := v.runq[0]
		v.runq = v.runq[0:copy(v.runq, v.runq[1:])]
		next.state = TaskRunning
		v.current = next
		v.contextSwitch()
	}
	v.advanceTask()
}

func (v *VCPU) contextSwitch() {
	k := v.kernel
	k.counters.ContextSw++
	v.switchCount++
	v.addKernelSeg(k.cost.GuestSchedSwitch, "ctx-switch")
	if v.switchCount%rcuEveryNSwitches == 0 && !v.rcuPending {
		v.rcuPending = true
		v.rcuDeadline = v.Now() + v.TickPeriod()
	}
}

func (v *VCPU) enterIdle() {
	v.idle = true
	v.kernel.counters.IdleEnters++
	v.policy.OnIdleEnter(v)
	s := v.kernel.acquireSeg()
	s.Kind = SegHLT
	s.Label = "idle"
	v.queueSeg(s)
}

func (v *VCPU) exitIdle() {
	v.idle = false
	v.kernel.counters.IdleExits++
	v.policy.OnIdleExit(v)
}

// advanceTask pushes the current task's next work onto the queue.
func (v *VCPU) advanceTask() {
	t := v.current
	if t == nil {
		return
	}
	if t.remaining > 0 {
		v.pushTaskRun(t)
		return
	}
	v.stepComplete(t)
}

//paratick:noalloc
func (v *VCPU) pushTaskRun(t *Task) {
	s := v.kernel.acquireSeg()
	s.Kind = SegRun
	s.Duration = t.remaining
	s.Label = t.Name
	s.ownerTask = t
	v.queueSeg(s)
}

// stepComplete fetches and applies the task's next program step. The context
// is the vCPU's reusable scratch; programs must not retain it past Next.
func (v *VCPU) stepComplete(t *Task) {
	v.stepCtx = StepCtx{Now: v.Now(), Rand: t.rng, TaskID: t.ID}
	v.applyStep(t, t.prog.Next(&v.stepCtx))
}

func (v *VCPU) applyStep(t *Task, step Step) {
	k := v.kernel
	switch step.Kind {
	case StepCompute:
		if step.D <= 0 {
			v.stepComplete(t)
			return
		}
		t.remaining = step.D
		v.pushTaskRun(t)

	case StepSleep:
		v.addKernelSeg(k.cost.GuestSyscall, "nanosleep")
		t.sleepTimer = SoftTimer{
			Deadline: v.Now() + step.D,
			Fire:     t.sleepFireFn,
		}
		v.wheel.Add(&t.sleepTimer)
		v.block(t)

	case StepLock:
		v.addKernelSeg(250, "lock-fast-path")
		if step.L.tryAcquireFast(t) {
			v.stepComplete(t)
			return
		}
		if spin := k.cfg.AdaptiveSpin; spin > 0 {
			// Optimistic spinning: burn CPU in a pause loop, then re-probe;
			// only block if the lock is still held. This is the behaviour
			// pause-loop exiting (PLE) targets — and why the paper disables
			// PLE when studying pure blocking synchronization (§6).
			s := v.kernel.acquireSeg()
			s.Kind = SegRun
			s.Duration = t.rng.Jitter(spin, 0.2)
			s.Kernel = true
			s.Spin = true
			s.Label = "lock-spin"
			s.ownerTask = t
			s.ownerLock = step.L
			v.queueSeg(s)
			return
		}
		step.L.enqueueWaiter(t)
		v.addKernelSeg(k.cost.GuestSyscall, "futex-wait")
		v.block(t)

	case StepUnlock:
		next := step.L.release(t)
		v.addKernelSeg(250, "unlock")
		if next != nil {
			k.wake(next, v)
		}
		v.stepComplete(t)

	case StepBarrier:
		toWake, release := step.B.arrive(t)
		v.addKernelSeg(k.cost.GuestSyscall, "barrier")
		if release {
			for _, w := range toWake {
				k.wake(w, v)
			}
			v.stepComplete(t)
			return
		}
		v.block(t)

	case StepCondWait:
		v.addKernelSeg(k.cost.GuestSyscall, "cond-wait")
		step.C.wait(t) // panics unless t holds the paired lock
		if next := step.C.lock.release(t); next != nil {
			k.wake(next, v)
		}
		v.block(t)

	case StepCondSignal, StepCondBroadcast:
		n := 1
		if step.Kind == StepCondBroadcast {
			n = -1
		}
		v.addKernelSeg(250, "cond-signal")
		for _, w := range step.C.signal(n) {
			// The woken task resumes inside its wait: it must re-acquire
			// the paired lock first. If the lock is free it grabs it and
			// wakes immediately; otherwise it queues as a lock waiter and
			// the eventual release hands off and wakes it — no thundering
			// herd.
			if step.C.lock.tryAcquireFast(w) {
				k.wake(w, v)
			} else {
				step.C.lock.enqueueWaiter(w)
			}
		}
		v.stepComplete(t)

	case StepBarrierLeave:
		v.addKernelSeg(250, "barrier-leave")
		for _, w := range step.B.detach() {
			k.wake(w, v)
		}
		v.stepComplete(t)

	case StepIO:
		v.addKernelSeg(k.cost.GuestIOSubmitWork, "io-submit")
		req := step.Dev.NewRequest()
		req.Write = step.Write
		req.Sequential = step.Sequential
		req.Bytes = step.Bytes
		req.VCPU = v.id
		if step.Blocking {
			req.Waiter = t.ID
		}
		s := v.kernel.acquireSeg()
		s.Kind = SegIOSubmit
		s.Req = req
		s.Dev = step.Dev
		s.Label = "io-kick"
		v.queueSeg(s)
		if step.Blocking {
			v.block(t)
			return
		}
		v.stepComplete(t)

	case StepYield:
		v.addKernelSeg(k.cost.GuestSyscall, "yield")
		if len(v.runq) > 0 {
			t.state = TaskRunnable
			v.runq = append(v.runq, t)
			v.current = nil
		}
		// With an empty run queue the task just continues.
		if v.current == t {
			v.stepComplete(t)
		}

	case StepDone:
		v.addKernelSeg(k.cost.GuestSyscall, "exit")
		v.current = nil
		k.taskDone(t)

	default:
		panic(fmt.Sprintf("guest: unknown step kind %v", step.Kind))
	}
}

// spinDone ends a completed optimistic-spin segment: t takes the lock if
// it freed up meanwhile, otherwise it blocks as a waiter.
func (v *VCPU) spinDone(lock *Lock, t *Task) {
	if lock.tryAcquireFast(t) {
		v.stepComplete(t)
		return
	}
	lock.enqueueWaiter(t)
	v.addKernelSeg(v.kernel.cost.GuestSyscall, "futex-wait")
	v.block(t)
}

// block marks the current task blocked and frees the CPU.
func (v *VCPU) block(t *Task) {
	t.state = TaskBlocked
	if v.current == t {
		v.current = nil
	}
}

// wake makes t runnable on its home vCPU. Wakes from a different vCPU send
// a reschedule IPI (a VM exit for the waker) so a halted target is brought
// out of idle — the cross-vCPU path §4.2 analyzes.
func (k *Kernel) wake(t *Task, waker *VCPU) {
	if t.state != TaskBlocked {
		return
	}
	if t.sleepTimer.Pending() {
		t.vcpu.wheel.Cancel(&t.sleepTimer)
	}
	t.state = TaskRunnable
	k.counters.Wakeups++
	t.vcpu.runq = append(t.vcpu.runq, t)
	if waker != nil && waker != t.vcpu {
		waker.addKernelSeg(k.cost.GuestWakeup, "wakeup-remote")
		s := k.acquireSeg()
		s.Kind = SegIPI
		s.Target = t.vcpu.id
		s.Label = "resched-ipi"
		waker.queueSeg(s)
	}
}

// WakeTask wakes a blocked task from outside any vCPU context (used by
// tests and by host-driven events that bypass the IPI path).
func (k *Kernel) WakeTask(t *Task) { k.wake(t, nil) }
