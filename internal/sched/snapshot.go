package sched

// Checkpoint/restore of scheduler queues. Entities travel by their stable
// Node.Key (never by pointer), and queue contents move in logical order so
// a restored scheduler makes byte-identical decisions. Per-entity vruntime
// travels with the entity itself (Node.Snap), since the entity's owner
// moves it alongside the rest of its state.

import (
	"paratick/internal/snap"
)

// Snap moves the node's accumulated scheduling state. Key is not encoded:
// it is construction-time identity, re-established on rebuild.
func (n *Node) Snap(s *snap.Stream) { snap.Int(s, &n.vruntime) }

// snap moves the queue's entities in logical order, as their keys. A
// rebuilt scenario enqueues entities while replaying its construction
// (VM.Start); decoding replaces them wholesale, resolving each key through
// lookup.
func (q *fifoQueue) snap(s *snap.Stream, lookup func(key uint64) Entity) {
	q.compact()
	for i := range snap.Slice(s, &q.items) {
		var key uint64
		if e := q.items[i]; e != nil {
			key = e.SchedNode().Key
		}
		s.U64(&key)
		if s.Decoding() {
			if q.items[i] = lookup(key); q.items[i] == nil {
				s.Failf("sched: snapshot references unknown entity key %d", key)
			}
		}
	}
}

// Snap moves every per-pCPU ready queue into or out of a scheduler of
// identical topology; lookup resolves entity keys when decoding.
func (s *fifoSched) Snap(st *snap.Stream, lookup func(key uint64) Entity) {
	st.Section("sched:fifo")
	st.Len(len(s.queues), "scheduler queues")
	for i := range s.queues {
		s.queues[i].snap(st, lookup)
	}
}

// Snap moves every per-pCPU ready queue plus its vruntime floor. Decoding
// inserts entities directly, not through Enqueue — Enqueue applies the
// sleeper credit, which must not be re-applied on restore.
func (s *fairSched) Snap(st *snap.Stream, lookup func(key uint64) Entity) {
	st.Section("sched:fair")
	st.Len(len(s.queues), "scheduler queues")
	for i := range s.queues {
		s.queues[i].snap(st, lookup)
		snap.Int(st, &s.queues[i].minVruntime)
	}
}
