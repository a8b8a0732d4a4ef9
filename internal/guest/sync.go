package guest

// Blocking synchronization primitives. These model futex-backed pthread
// mutexes and barriers: contended acquisition blocks the task (possibly
// idling its vCPU — the behaviour whose timer cost §3.2 analyzes), and
// release hands the lock directly to the first waiter and wakes it, which
// crosses vCPUs via a reschedule IPI.

// Lock is a guest-level blocking mutex with direct handoff.
type Lock struct {
	// id is the lock's ordinal in the kernel's creation-order registry,
	// the stable identity used by checkpoints.
	id int
	//snap:skip immutable diagnostic label from deterministic construction
	name   string
	holder *Task
	//snap:skip derived: rebuilt from the task records' placements
	waiters []*Task

	acquisitions uint64
	contended    uint64
}

// Name returns the lock's diagnostic name.
func (l *Lock) Name() string { return l.name }

// Holder returns the current owner, or nil.
func (l *Lock) Holder() *Task { return l.holder }

// Waiters returns the number of blocked waiters.
func (l *Lock) Waiters() int { return len(l.waiters) }

// Acquisitions returns the total successful acquisitions.
func (l *Lock) Acquisitions() uint64 { return l.acquisitions }

// Contended returns how many acquisitions had to block.
func (l *Lock) Contended() uint64 { return l.contended }

// reset writes the lock's per-run state, on a fresh shell or a pooled lock
// alike; the registry id and name are construction identity and survive.
//
//paratick:noalloc
func (l *Lock) reset() {
	l.holder = nil
	clear(l.waiters)
	l.waiters = l.waiters[:0]
	l.acquisitions = 0
	l.contended = 0
}

// tryAcquire attempts acquisition for t. On contention, t is queued and
// blocked; the caller must stop running the task. Returns whether the lock
// was taken.
func (l *Lock) tryAcquire(t *Task) bool {
	if l.tryAcquireFast(t) {
		return true
	}
	l.enqueueWaiter(t)
	return false
}

// tryAcquireFast takes the lock iff it is free (the optimistic-spin probe).
func (l *Lock) tryAcquireFast(t *Task) bool {
	if l.holder == nil {
		l.holder = t
		l.acquisitions++
		return true
	}
	return false
}

// enqueueWaiter registers t as a blocked waiter.
func (l *Lock) enqueueWaiter(t *Task) {
	l.contended++
	l.waiters = append(l.waiters, t)
}

// release transfers the lock to the first waiter (direct handoff) and
// returns the task to wake, or nil when uncontended. Releasing a lock not
// held by t panics: it is always a workload bug.
func (l *Lock) release(t *Task) *Task {
	if l.holder != t {
		panic("guest: unlock of a lock not held by the calling task")
	}
	if len(l.waiters) == 0 {
		l.holder = nil
		return nil
	}
	next := l.waiters[0]
	l.waiters = l.waiters[0:copy(l.waiters, l.waiters[1:])]
	l.holder = next
	l.acquisitions++
	return next
}

// Barrier blocks tasks until Parties of them have arrived, then releases
// all of them at once (the last arrival does not block). This reproduces
// the phase synchronization of data-parallel PARSEC workloads.
type Barrier struct {
	//snap:skip immutable diagnostic label from deterministic construction
	name    string
	parties int
	//snap:skip derived: rebuilt from the task records' placements
	waiting []*Task
	// spare is the previous cycle's waiting buffer, recycled so each release
	// does not abandon the array. Safe because the returned toWake slice is
	// consumed synchronously (the caller wakes every task before any of them
	// can re-arrive).
	//snap:skip pool: recycled waiter buffer, capacity only
	spare []*Task

	cycles uint64
}

// Name returns the barrier's diagnostic name.
func (b *Barrier) Name() string { return b.name }

// Parties returns the arrival count that releases the barrier.
func (b *Barrier) Parties() int { return b.parties }

// Waiting returns the number of tasks currently blocked at the barrier.
func (b *Barrier) Waiting() int { return len(b.waiting) }

// Cycles returns how many times the barrier has released.
func (b *Barrier) Cycles() uint64 { return b.cycles }

// reset writes the barrier's per-run state for parties tasks, on a fresh
// shell or a pooled barrier alike. The party count is taken from the
// constructor call, not the old value: detach shrinks parties during a
// run, so it is per-run state.
//
//paratick:noalloc
func (b *Barrier) reset(parties int) {
	b.parties = parties
	clear(b.waiting)
	b.waiting = b.waiting[:0]
	b.cycles = 0
}

// arrive registers t. If t completes the party, it returns the tasks to
// wake (everyone else) and releaseAll=true; otherwise t must block.
//
//paratick:noalloc
func (b *Barrier) arrive(t *Task) (toWake []*Task, releaseAll bool) {
	if len(b.waiting)+1 >= b.parties {
		toWake = b.waiting
		b.waiting = b.spare[:0]
		b.spare = toWake
		b.cycles++
		return toWake, true
	}
	b.waiting = append(b.waiting, t)
	return nil, false
}

// detach removes one party from the barrier — a participating task is
// exiting. If the remaining waiters now complete a cycle, they are
// released; the returned tasks must be woken by the caller.
//
//paratick:noalloc
func (b *Barrier) detach() (toWake []*Task) {
	if b.parties > 0 {
		b.parties--
	}
	if b.parties > 0 && len(b.waiting) >= b.parties {
		toWake = b.waiting
		b.waiting = b.spare[:0]
		b.spare = toWake
		b.cycles++
	}
	return toWake
}

// Cond is a guest-level condition variable paired with an external Lock,
// mirroring pthread_cond_t: Wait atomically releases the lock and blocks;
// Signal wakes one waiter, Broadcast wakes all. Woken tasks re-acquire the
// lock before Wait returns (the scheduler replays the acquisition). This is
// the primitive behind the producer/consumer queues of the pipeline PARSEC
// workloads (dedup, ferret) whose blocking behaviour §3.2 analyzes.
type Cond struct {
	//snap:skip immutable diagnostic label from deterministic construction
	name string
	//snap:skip construction identity: the rebuilt scenario pairs the cond with the same lock
	lock *Lock
	//snap:skip derived: rebuilt from the task records' placements
	waiters []*Task

	waits   uint64
	signals uint64
}

// NewCond creates a condition variable bound to l.
func (k *Kernel) NewCond(name string, l *Lock) *Cond {
	if l == nil {
		panic("guest: NewCond with nil lock")
	}
	id := len(k.conds)
	c := claim(k.condPool, id, name)
	if c == nil {
		c = &Cond{name: name}
	}
	c.reset(l)
	k.conds = append(k.conds, c)
	return c
}

// reset writes the condvar's per-run state bound to l, on a fresh shell or
// a pooled condvar alike.
//
//paratick:noalloc
func (c *Cond) reset(l *Lock) {
	c.lock = l
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	c.waits = 0
	c.signals = 0
}

// Name returns the condvar's diagnostic name.
func (c *Cond) Name() string { return c.name }

// Lock returns the paired mutex.
func (c *Cond) Lock() *Lock { return c.lock }

// Waiters returns the number of blocked waiters.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Waits returns the total number of Wait calls.
func (c *Cond) Waits() uint64 { return c.waits }

// Signals returns the total number of Signal/Broadcast wakes delivered.
func (c *Cond) Signals() uint64 { return c.signals }

// wait enqueues t (which must hold the lock); the caller releases the lock
// and blocks the task.
func (c *Cond) wait(t *Task) {
	if c.lock.holder != t {
		panic("guest: cond wait without holding the paired lock")
	}
	c.waits++
	c.waiters = append(c.waiters, t)
}

// signal dequeues up to n waiters (n < 0 = all) and returns them; the
// caller wakes them, and each woken task re-acquires the lock before its
// Wait step completes.
func (c *Cond) signal(n int) []*Task {
	if n < 0 || n > len(c.waiters) {
		n = len(c.waiters)
	}
	out := c.waiters[:n]
	c.waiters = c.waiters[n:]
	c.signals += uint64(n)
	return out
}
