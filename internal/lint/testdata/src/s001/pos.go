package s001

import "paratick/internal/snap"

// Counter is under the coverage contract: Snap moves value, so every
// other field must be moved or carry a justified //snap:skip.
type Counter struct {
	value uint64
	// dropped is stateful but never moved and carries no skip: one
	// finding.
	dropped uint64
	//snap:skip
	cache map[string]uint64 // reasonless skip excuses nothing: one finding
}

// Snap moves only value.
func (c *Counter) Snap(s *snap.Stream) {
	s.U64(&c.value)
}

// Gate's Snap mentions armed without moving it: a read in a condition is
// not coverage. One finding.
type Gate struct {
	open  bool
	armed bool
}

// Snap moves open only while armed.
func (g *Gate) Snap(s *snap.Stream) {
	if g.armed {
		s.Bool(&g.open)
	}
}
