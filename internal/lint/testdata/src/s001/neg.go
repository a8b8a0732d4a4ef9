package s001

import "paratick/internal/snap"

// Gauge is fully covered: high is moved by the Snap method, low by a helper
// in the save graph, limit through a checked local copy, and scratch
// carries a justified skip. Clean.
type Gauge struct {
	high  uint64
	low   uint64
	limit uint64
	//snap:skip scratch buffer, rebuilt on demand after restore
	scratch []byte
}

// Snap moves high and delegates the rest.
func (g *Gauge) Snap(s *snap.Stream) {
	s.U64(&g.high)
	snapLow(s, g)
	limit := g.limit
	s.U64(&limit)
	if limit != g.limit {
		s.Failf("limit %d, want %d", limit, g.limit)
	}
}

// snapLow has a stream parameter, so it is part of the save graph.
func snapLow(s *snap.Stream, g *Gauge) {
	s.U64(&g.low)
}

// Untracked is never touched by any Snap body: not under the contract, so
// its unmoved fields are legal.
type Untracked struct {
	hits   int
	misses int
}

// Touch keeps the fields referenced outside the save graph.
func (u *Untracked) Touch() { u.hits++; u.misses++ }
