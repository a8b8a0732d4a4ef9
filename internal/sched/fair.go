package sched

import (
	"paratick/internal/hw"
	"paratick/internal/sim"
)

// fairSched is a CFS-like policy: each entity accumulates virtual runtime
// while it occupies a pCPU, queues are ordered by least vruntime (ties on
// Node.Key), the timeslice shrinks as the queue deepens, and a pCPU that
// goes idle steals the best waiter from a same-socket sibling. Under
// overcommit this gets woken vCPUs — which carry pending interrupt
// injections — onto a pCPU well before a FIFO rotation would.
type fairSched struct {
	//snap:skip immutable host topology from the scenario
	//reset:keep machine shape fixed at construction; the host pool keys on the topology
	topo hw.Topology
	//snap:skip immutable policy parameter from the scenario
	timeslice sim.Time
	// minGranularity bounds how small the dynamic timeslice gets, CFS's
	// sysctl_sched_min_granularity.
	//snap:skip immutable policy parameter from the scenario
	minGranularity sim.Time
	queues         []fairQueue
}

// fairQueue holds one pCPU's waiters. Queues stay tiny (bounded by the
// overcommit ratio), so min-selection is a linear scan with deterministic
// tie-breaking rather than a tree.
type fairQueue struct {
	//snap:skip moved through its promoted snap method, as entity keys
	fifoQueue
	// minVruntime is a monotonic floor tracking the queue's progress; newly
	// woken entities are placed at the floor so a long sleeper cannot
	// monopolize the pCPU while everyone else catches up.
	minVruntime sim.Time
}

func newFair(topo hw.Topology, timeslice sim.Time) *fairSched {
	s := &fairSched{topo: topo, queues: make([]fairQueue, topo.NumCPUs())}
	s.Reset(timeslice)
	return s
}

func (s *fairSched) Name() string { return Fair.String() }

func (s *fairSched) Enqueue(cpu hw.CPUID, e Entity, now sim.Time) {
	q := &s.queues[cpu]
	// Gentle sleeper credit (CFS's GENTLE_FAIR_SLEEPERS): a waker is placed
	// half a base timeslice below the queue's floor rather than exactly at
	// it. At the bare floor a woken vCPU merely *ties* with whatever has
	// been spinning — and a tie is decided by Key, i.e. creation order —
	// whereas the credit makes wake-then-run strictly preferred while still
	// bounding how much history a long sleeper can bank.
	if n, floor := e.SchedNode(), q.minVruntime-s.timeslice/2; n.vruntime < floor {
		n.vruntime = floor
	}
	q.push(e)
}

// minIndex returns the index of the queue's least-vruntime waiter, ties
// broken by the lower Node.Key. -1 when empty.
//
//paratick:noalloc
func (q *fairQueue) minIndex() int {
	best := -1
	var bestV sim.Time
	var bestKey uint64
	for i := 0; i < q.len(); i++ {
		n := q.at(i).SchedNode()
		if best < 0 || n.vruntime < bestV || (n.vruntime == bestV && n.Key < bestKey) {
			best, bestV, bestKey = i, n.vruntime, n.Key
		}
	}
	return best
}

func (s *fairSched) PickNext(cpu hw.CPUID, now sim.Time) Entity {
	q := &s.queues[cpu]
	if i := q.minIndex(); i >= 0 {
		return s.take(q, i)
	}
	return s.steal(cpu)
}

// steal scans the idle CPU's socket siblings in increasing CPU id order and
// takes the globally least-vruntime waiter. The fixed scan order and the
// (vruntime, Key, CPU id) tie-break keep stealing deterministic.
//
//paratick:noalloc
func (s *fairSched) steal(cpu hw.CPUID) Entity {
	first := hw.CPUID(s.topo.SocketOf(cpu) * s.topo.CPUsPerSocket)
	bestCPU, bestIdx := hw.CPUID(-1), -1
	var bestV sim.Time
	var bestKey uint64
	for sib := first; sib < first+hw.CPUID(s.topo.CPUsPerSocket); sib++ {
		if sib == cpu {
			continue
		}
		q := &s.queues[sib]
		i := q.minIndex()
		if i < 0 {
			continue
		}
		n := q.at(i).SchedNode()
		if bestIdx < 0 || n.vruntime < bestV || (n.vruntime == bestV && n.Key < bestKey) {
			bestCPU, bestIdx, bestV, bestKey = sib, i, n.vruntime, n.Key
		}
	}
	if bestIdx < 0 {
		return nil
	}
	return s.take(&s.queues[bestCPU], bestIdx)
}

// take removes index i from q and advances the queue's vruntime floor.
//
//paratick:noalloc
func (s *fairSched) take(q *fairQueue, i int) Entity {
	e := q.removeAt(i)
	if v := e.SchedNode().vruntime; v > q.minVruntime {
		q.minVruntime = v
	}
	return e
}

func (s *fairSched) QueueLen(cpu hw.CPUID) int { return s.queues[cpu].len() }

// TickPreempt expires the running entity once it has consumed its share of
// the base timeslice: timeslice/(waiters+1), floored at the minimum
// granularity. With an empty queue nothing contends and the entity runs on.
func (s *fairSched) TickPreempt(cpu hw.CPUID, running Entity, sliceStart, now sim.Time) bool {
	qlen := s.queues[cpu].len()
	if qlen == 0 {
		return false
	}
	slice := s.timeslice / sim.Time(qlen+1)
	if slice < s.minGranularity {
		slice = s.minGranularity
	}
	return now-sliceStart >= slice
}

func (s *fairSched) Ran(e Entity, d sim.Time) {
	if d > 0 {
		e.SchedNode().vruntime += d
	}
}

func (s *fairSched) Reset(timeslice sim.Time) {
	s.timeslice = timeslice
	s.minGranularity = timeslice / 8
	for i := range s.queues {
		q := &s.queues[i]
		clearTail(q.items[:cap(q.items)], 0)
		q.items = q.items[:0]
		q.head = 0
		q.minVruntime = 0
	}
}
