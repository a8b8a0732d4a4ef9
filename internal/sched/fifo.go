package sched

import (
	"paratick/internal/hw"
	"paratick/internal/sim"
)

// fifoQueue is one pCPU's ready queue with an O(1) head pop: a slice plus a
// head index, compacted only when the dead prefix dominates. (The original
// in-hypervisor queue shifted the whole slice with copy on every dispatch —
// O(n) per pop under overcommit.)
type fifoQueue struct {
	items []Entity
	//snap:skip consumed-prefix cursor, compacted to zero before the queue moves
	head int
}

// queueShare is the capacity a ready queue is carved on its first push:
// a pCPU's queue at the 4:1 overcommit the paper's scenarios reach, where
// every vCPU of a pCPU queues at boot. queueChunk is how many shares one
// backing array holds. Carving on first push sizes the storage by the
// pCPUs the host places vCPUs on, not by the topology: a fresh scheduler
// allocates once per sixteen queues it uses, not per queue as each grows
// 1 → 2 → 4, and holds nothing for pCPUs it never queues on.
const (
	queueShare = 4
	queueChunk = 16
)

// push appends e. A queue's first push carves it a share of *spare, its
// scheduler's uncarved queue storage, with a full slice expression, so a
// queue that outgrows its share reallocates on its own instead of
// overrunning its neighbour's.
func (q *fifoQueue) push(e Entity, spare *[]Entity) {
	if cap(q.items) == 0 {
		if len(*spare) < queueShare {
			*spare = make([]Entity, queueShare*queueChunk)
		}
		q.items = (*spare)[:0:queueShare]
		*spare = (*spare)[queueShare:]
	}
	q.items = append(q.items, e)
}

//paratick:noalloc
func (q *fifoQueue) len() int { return len(q.items) - q.head }

func (q *fifoQueue) pop() Entity {
	if q.head >= len(q.items) {
		return nil
	}
	e := q.items[q.head]
	q.items[q.head] = nil // release the reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.items) {
		q.compact()
	}
	return e
}

// compact drops the consumed prefix so items holds exactly the queued
// entities.
func (q *fifoQueue) compact() {
	n := copy(q.items, q.items[q.head:])
	clearTail(q.items, n)
	q.items = q.items[:n]
	q.head = 0
}

// removeAt removes and returns the queued entity at logical index i.
//
//paratick:noalloc
func (q *fifoQueue) removeAt(i int) Entity {
	idx := q.head + i
	e := q.items[idx]
	copy(q.items[idx:], q.items[idx+1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return e
}

// at returns the queued entity at logical index i without removing it.
//
//paratick:noalloc
func (q *fifoQueue) at(i int) Entity { return q.items[q.head+i] }

func clearTail(s []Entity, from int) {
	for i := from; i < len(s); i++ {
		s[i] = nil
	}
}

// fifoSched reproduces the legacy hardcoded policy exactly: per-pCPU arrival
// order, a fixed timeslice checked at host ticks, no migration, no runtime
// accounting.
type fifoSched struct {
	queues []fifoQueue
	// spare is queue storage not yet carved into a queue.
	//snap:skip pool: uncarved queue capacity, never scheduler state
	//reset:keep pool: uncarved queue capacity; carved shares stay with their queues across Reset
	spare []Entity
	//snap:skip immutable policy parameter from the scenario
	timeslice sim.Time
}

func newFIFO(topo hw.Topology, timeslice sim.Time) *fifoSched {
	s := &fifoSched{queues: make([]fifoQueue, topo.NumCPUs())}
	s.Reset(timeslice)
	return s
}

func (s *fifoSched) Name() string { return FIFO.String() }

func (s *fifoSched) Enqueue(cpu hw.CPUID, e Entity, now sim.Time) {
	s.queues[cpu].push(e, &s.spare)
}

func (s *fifoSched) PickNext(cpu hw.CPUID, now sim.Time) Entity {
	return s.queues[cpu].pop()
}

func (s *fifoSched) QueueLen(cpu hw.CPUID) int { return s.queues[cpu].len() }

func (s *fifoSched) TickPreempt(cpu hw.CPUID, running Entity, sliceStart, now sim.Time) bool {
	return s.queues[cpu].len() > 0 && now-sliceStart >= s.timeslice
}

func (s *fifoSched) Ran(e Entity, d sim.Time) {}

func (s *fifoSched) Reset(timeslice sim.Time) {
	s.timeslice = timeslice
	for i := range s.queues {
		q := &s.queues[i]
		clearTail(q.items[:cap(q.items)], 0)
		q.items = q.items[:0]
		q.head = 0
	}
}
