package sched

import (
	"testing"

	"paratick/internal/hw"
	"paratick/internal/sim"
)

type ent struct{ node Node }

func (e *ent) SchedNode() *Node { return &e.node }

func newEnt(key uint64, vruntime sim.Time) *ent {
	return &ent{node: Node{Key: key, vruntime: vruntime}}
}

func testTopo() hw.Topology {
	return hw.Topology{Sockets: 2, CPUsPerSocket: 2, CrossSocketTax: 1.35}
}

func TestKindParseString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{{"fifo", FIFO}, {"", FIFO}, {"fair", Fair}, {"cfs", Fair}} {
		k, err := Parse(tc.in)
		if err != nil || k != tc.want {
			t.Errorf("Parse(%q) = %v, %v", tc.in, k, err)
		}
	}
	if _, err := Parse("rr"); err == nil {
		t.Error("unknown policy accepted")
	}
	if FIFO.String() != "fifo" || Fair.String() != "fair" {
		t.Error("bad names")
	}
	if err := Kind(7).Validate(); err == nil {
		t.Error("invalid kind validated")
	}
	if _, err := New(Kind(7), testTopo(), sim.Millisecond); err == nil {
		t.Error("New accepted invalid kind")
	}
	if _, err := New(FIFO, testTopo(), 0); err == nil {
		t.Error("New accepted zero timeslice")
	}
}

func TestFIFOOrderAndTick(t *testing.T) {
	s, err := New(FIFO, testTopo(), 6*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "fifo" {
		t.Fatalf("name = %q", s.Name())
	}
	a, b, c := newEnt(1, 0), newEnt(2, 0), newEnt(3, 0)
	s.Enqueue(0, a, 0)
	s.Enqueue(0, b, 0)
	if got := s.QueueLen(0); got != 2 {
		t.Fatalf("len = %d", got)
	}
	// Strict arrival order, no stealing from CPU 0's queue by CPU 1.
	if s.PickNext(1, 0) != nil {
		t.Fatal("fifo stole work")
	}
	if s.PickNext(0, 0) != a {
		t.Fatal("want a first")
	}
	s.Enqueue(0, c, 0)
	if s.PickNext(0, 0) != b || s.PickNext(0, 0) != c || s.PickNext(0, 0) != nil {
		t.Fatal("fifo order broken")
	}
	// Legacy preemption rule: queue non-empty AND slice elapsed.
	s.Enqueue(0, b, 0)
	if s.TickPreempt(0, a, 0, 5*sim.Millisecond) {
		t.Error("preempted before timeslice")
	}
	if !s.TickPreempt(0, a, 0, 6*sim.Millisecond) {
		t.Error("no preempt at timeslice with waiter")
	}
	s.PickNext(0, 0)
	if s.TickPreempt(0, a, 0, sim.Second) {
		t.Error("preempted with empty queue")
	}
	s.Ran(a, sim.Second) // no-op for FIFO
	if a.node.VRuntime() != 0 {
		t.Error("fifo accounted vruntime")
	}
}

// TestQueueSharesDoNotOverlap pins the carving of ready queues from one
// backing array: a queue that outgrows its share reallocates, so its
// neighbour's entities stay where they were.
func TestQueueSharesDoNotOverlap(t *testing.T) {
	var spare []Entity
	var a, b fifoQueue
	a.push(newEnt(0, 0), &spare)
	b.push(newEnt(100, 0), &spare)
	for k := uint64(1); k < 3*queueShare; k++ {
		a.push(newEnt(k, 0), &spare)
	}
	if b.len() != 1 || b.at(0).SchedNode().Key != 100 {
		t.Fatalf("neighbour queue holds %d entities, first key %d: overrun by a growing queue", b.len(), b.at(0).SchedNode().Key)
	}
	for k := uint64(0); k < 3*queueShare; k++ {
		if got := a.pop().SchedNode().Key; got != k {
			t.Fatalf("grown queue popped key %d, want %d", got, k)
		}
	}
}

// TestFIFOQueueCompaction pushes enough entities through the ring that the
// head-index compaction path runs, and checks order survives it.
func TestFIFOQueueCompaction(t *testing.T) {
	var q fifoQueue
	var spare []Entity
	next := uint64(0)
	popped := uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.push(newEnt(next, 0), &spare)
			next++
		}
		for i := 0; i < 5; i++ {
			e := q.pop()
			if e == nil {
				t.Fatal("premature empty")
			}
			if got := e.SchedNode().Key; got != popped {
				t.Fatalf("popped key %d, want %d", got, popped)
			}
			popped++
		}
	}
	for q.len() > 0 {
		if got := q.pop().SchedNode().Key; got != popped {
			t.Fatalf("drain key %d, want %d", got, popped)
		}
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d of %d", popped, next)
	}
	if q.pop() != nil {
		t.Fatal("pop on empty queue")
	}
}

func TestFairPicksLeastVruntime(t *testing.T) {
	s, err := New(Fair, testTopo(), 6*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := newEnt(1, 300), newEnt(2, 100), newEnt(3, 100)
	s.Enqueue(0, a, 0)
	s.Enqueue(0, b, 0)
	s.Enqueue(0, c, 0)
	// b and c tie on vruntime; the lower key wins.
	if got := s.PickNext(0, 0); got != b {
		t.Fatalf("want b, got %v", got.SchedNode().Key)
	}
	if got := s.PickNext(0, 0); got != c {
		t.Fatal("want c second")
	}
	if got := s.PickNext(0, 0); got != a {
		t.Fatal("want a last")
	}
	s.Ran(a, 50)
	if a.node.VRuntime() != 350 {
		t.Fatalf("vruntime = %v", a.node.VRuntime())
	}
}

// TestFairWakePlacement verifies the monotonic floor with sleeper credit:
// an entity that slept through everyone else's progress is re-enqueued half
// a timeslice below the queue's floor — strictly preferred over the spinners
// that advanced the floor, but not at its stale low vruntime.
func TestFairWakePlacement(t *testing.T) {
	s := newFair(testTopo(), 6*sim.Millisecond)
	hog := newEnt(1, 0)
	s.Enqueue(0, hog, 0)
	s.Ran(hog, 10*sim.Millisecond)
	if s.PickNext(0, 0) != hog {
		t.Fatal("want hog")
	} // floor -> 0, hog runs
	s.Enqueue(0, hog, 0)
	if s.PickNext(0, 0) != hog {
		t.Fatal("want hog again")
	} // floor -> 10ms
	sleeper := newEnt(2, 0)
	s.Enqueue(0, sleeper, 0)
	if got, want := sleeper.node.VRuntime(), 7*sim.Millisecond; got != want {
		t.Fatalf("sleeper placed at %v, want floor minus credit (%v)", got, want)
	}
	// The credit makes the sleeper strictly preferred over the hog.
	s.Enqueue(0, hog, 0)
	if s.PickNext(0, 0) != sleeper {
		t.Fatal("woken sleeper should beat the hog")
	}
}

func TestFairStealsWithinSocketOnly(t *testing.T) {
	s := newFair(testTopo(), 6*sim.Millisecond) // sockets {0,1} and {2,3}
	w1, w2 := newEnt(5, 100), newEnt(6, 50)
	s.Enqueue(1, w1, 0)
	s.Enqueue(1, w2, 0)
	other := newEnt(7, 1)
	s.Enqueue(2, other, 0)
	// CPU 0 is idle: it must steal the least-vruntime waiter from its own
	// socket (CPU 1), never the cross-socket CPU 2 waiter.
	if got := s.PickNext(0, 0); got != w2 {
		t.Fatalf("stole wrong entity (key %d)", got.(*ent).node.Key)
	}
	if got := s.PickNext(0, 0); got != w1 {
		t.Fatal("second steal should drain socket sibling")
	}
	if got := s.PickNext(0, 0); got != nil {
		t.Fatal("stole across sockets")
	}
	if got := s.PickNext(3, 0); got != other {
		t.Fatal("socket 1 idle CPU should steal its sibling's waiter")
	}
}

func TestFairTickPreemptShrinksWithQueueDepth(t *testing.T) {
	s := newFair(testTopo(), 6*sim.Millisecond)
	run := newEnt(1, 0)
	if s.TickPreempt(0, run, 0, sim.Second) {
		t.Error("preempted with no waiters")
	}
	s.Enqueue(0, newEnt(2, 0), 0)
	// One waiter: slice = 6ms/2 = 3ms.
	if s.TickPreempt(0, run, 0, 2*sim.Millisecond) {
		t.Error("preempted before 3ms slice")
	}
	if !s.TickPreempt(0, run, 0, 3*sim.Millisecond) {
		t.Error("no preempt at 3ms with one waiter")
	}
	for i := uint64(3); i < 20; i++ {
		s.Enqueue(0, newEnt(i, 0), 0)
	}
	// Deep queue: slice floors at minGranularity = 6ms/8 = 750us.
	if s.TickPreempt(0, run, 0, 700*sim.Microsecond) {
		t.Error("preempted below min granularity")
	}
	if !s.TickPreempt(0, run, 0, 750*sim.Microsecond) {
		t.Error("no preempt at min granularity")
	}
}
