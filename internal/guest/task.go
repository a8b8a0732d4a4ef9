package guest

import (
	"fmt"

	"paratick/internal/iodev"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// StepKind enumerates the actions a workload program can request.
type StepKind int

const (
	// StepCompute runs on the CPU for D.
	StepCompute StepKind = iota
	// StepSleep blocks the task for D via a soft timer (timer wheel).
	StepSleep
	// StepLock acquires L, blocking if contended.
	StepLock
	// StepUnlock releases L, waking the next waiter.
	StepUnlock
	// StepBarrier joins barrier B; the last arriving task releases all.
	StepBarrier
	// StepBarrierLeave removes the task from barrier B's party (a thread
	// exiting a phased computation).
	StepBarrierLeave
	// StepCondWait atomically releases C's lock and blocks until signaled,
	// then re-acquires the lock (pthread_cond_wait).
	StepCondWait
	// StepCondSignal wakes one waiter of C (pthread_cond_signal).
	StepCondSignal
	// StepCondBroadcast wakes all waiters of C (pthread_cond_broadcast).
	StepCondBroadcast
	// StepIO performs a block-device operation; Blocking selects
	// synchronous semantics (the paper's fio runs use the sync engine).
	StepIO
	// StepYield relinquishes the CPU to the next runnable task.
	StepYield
	// StepDone terminates the task.
	StepDone
)

// String names the step kind.
func (k StepKind) String() string {
	names := [...]string{"compute", "sleep", "lock", "unlock", "barrier", "barrier-leave", "cond-wait", "cond-signal", "cond-broadcast", "io", "yield", "done"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("step(%d)", int(k))
}

// Step is one action requested by a workload program.
type Step struct {
	Kind       StepKind
	D          sim.Time // StepCompute / StepSleep
	L          *Lock
	B          *Barrier
	C          *Cond
	Dev        *iodev.Device
	Bytes      int
	Write      bool
	Sequential bool
	Blocking   bool // StepIO: true = synchronous (task blocks for completion)
}

// Convenience constructors keep workload definitions terse.

// Compute returns a CPU step of duration d.
func Compute(d sim.Time) Step { return Step{Kind: StepCompute, D: d} }

// Sleep returns a soft-timer sleep of duration d.
func Sleep(d sim.Time) Step { return Step{Kind: StepSleep, D: d} }

// Acquire returns a blocking lock acquisition.
func Acquire(l *Lock) Step { return Step{Kind: StepLock, L: l} }

// Release returns a lock release.
func Release(l *Lock) Step { return Step{Kind: StepUnlock, L: l} }

// JoinBarrier returns a barrier join.
func JoinBarrier(b *Barrier) Step { return Step{Kind: StepBarrier, B: b} }

// LeaveBarrier returns a barrier detach (an exiting thread leaves the
// party so the remaining threads stop waiting for it).
func LeaveBarrier(b *Barrier) Step { return Step{Kind: StepBarrierLeave, B: b} }

// Wait returns a condition wait: release the paired lock, block until
// signaled, re-acquire (the caller must hold c's lock).
func Wait(c *Cond) Step { return Step{Kind: StepCondWait, C: c} }

// Signal returns a wake of one waiter of c (the caller should hold c's
// lock, as with pthreads best practice; not enforced).
func Signal(c *Cond) Step { return Step{Kind: StepCondSignal, C: c} }

// Broadcast returns a wake of all waiters of c.
func Broadcast(c *Cond) Step { return Step{Kind: StepCondBroadcast, C: c} }

// Read returns a synchronous read of n bytes.
func Read(dev *iodev.Device, n int, sequential bool) Step {
	return Step{Kind: StepIO, Dev: dev, Bytes: n, Sequential: sequential, Blocking: true}
}

// WriteOp returns a write of n bytes; blocking selects sync semantics.
func WriteOp(dev *iodev.Device, n int, sequential, blocking bool) Step {
	return Step{Kind: StepIO, Dev: dev, Bytes: n, Write: true, Sequential: sequential, Blocking: blocking}
}

// Yield returns a voluntary CPU yield.
func Yield() Step { return Step{Kind: StepYield} }

// Done returns the terminal step.
func Done() Step { return Step{Kind: StepDone} }

// StepCtx is the context handed to programs when generating the next step.
type StepCtx struct {
	Now    sim.Time
	Rand   *sim.Rand
	TaskID int
}

// Program generates a task's behaviour one step at a time. Next is called
// when the previous step has fully completed (including any blocking).
type Program interface {
	Next(ctx *StepCtx) Step
}

// ProgramFunc adapts a function to the Program interface. A ProgramFunc
// cannot be checkpointed: closures hide their captured state. Programs used
// in snapshotted scenarios must be structs implementing ProgramState
// (embed Stateless when Next reads no mutable fields).
type ProgramFunc func(ctx *StepCtx) Step

// Next implements Program.
func (f ProgramFunc) Next(ctx *StepCtx) Step { return f(ctx) }

// ProgramState is implemented by programs whose behaviour depends on
// mutable fields. Checkpointing a kernel requires every spawned program to
// implement it: SnapState moves the fields Next reads through the stream,
// decoding into a freshly built program of the same shape, and fails the
// stream (s.Failf) on decoded state the program cannot hold.
type ProgramState interface {
	SnapState(s *snap.Stream)
}

// Stateless marks a Program as carrying no mutable state (its Next is a
// pure function of the StepCtx). Embed it to satisfy ProgramState.
type Stateless struct{}

// SnapState implements ProgramState; there is nothing to move.
func (Stateless) SnapState(*snap.Stream) {}

// stepsProgram replays a fixed step sequence, then Done. Its only mutable
// state is the replay cursor.
type stepsProgram struct {
	//snap:skip immutable step sequence from the scenario definition
	steps []Step
	i     int
}

// Next implements Program.
func (p *stepsProgram) Next(*StepCtx) Step {
	if p.i >= len(p.steps) {
		return Done()
	}
	s := p.steps[p.i]
	p.i++
	return s
}

// SnapState implements ProgramState.
func (p *stepsProgram) SnapState(s *snap.Stream) {
	i := uint32(p.i)
	s.U32(&i)
	if int(i) > len(p.steps) {
		s.Failf("guest: steps-program cursor %d outside %d steps", i, len(p.steps))
		return
	}
	p.i = int(i)
}

// Steps returns a Program that replays a fixed step sequence, then Done.
// Useful in tests and simple examples.
func Steps(steps ...Step) Program {
	return &stepsProgram{steps: steps}
}

// TaskState is a task's scheduler state.
type TaskState int

const (
	// TaskRunnable is queued on its vCPU's run queue.
	TaskRunnable TaskState = iota
	// TaskRunning is the vCPU's current task.
	TaskRunning
	// TaskBlocked is waiting on a lock, barrier, sleep, or I/O.
	TaskBlocked
	// TaskDone has finished.
	TaskDone
)

// String names the state.
func (s TaskState) String() string {
	names := [...]string{"runnable", "running", "blocked", "done"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Task is one schedulable guest thread.
type Task struct {
	ID int
	//snap:skip construction identity: the rebuilt scenario spawns it again
	Name string
	prog Program
	//snap:skip construction identity: tasks never migrate, and the rebuilt scenario spawns each on the same vCPU
	vcpu *VCPU
	//snap:skip derived: the task record's placement fixes it
	state TaskState
	rng   *sim.Rand

	// remaining holds unconsumed compute time when the task was preempted
	// mid-step.
	remaining sim.Time
	// sleepTimer is the task's nanosleep, pending only while it sleeps.
	sleepTimer SoftTimer

	// sleepFireFn is pre-bound in Spawn so the sleep path never allocates
	// a closure per event.
	//snap:skip pre-bound closure, recreated by Spawn on restore
	sleepFireFn func(sim.Time)

	startedAt  sim.Time
	finishedAt sim.Time
}

// State returns the scheduler state.
func (t *Task) State() TaskState { return t.state }

// VCPU returns the vCPU the task is affine to.
func (t *Task) VCPU() *VCPU { return t.vcpu }

// Runtime returns completion time minus start time for a done task.
func (t *Task) Runtime() sim.Time {
	if t.state != TaskDone {
		return 0
	}
	return t.finishedAt - t.startedAt
}
