package unused

import (
	"fmt"

	"paratick/internal/snap"
)

// Working suppresses a real map-range finding: the directive earns its
// keep, no U001 finding.
func Working(m map[string]int) {
	//lint:ignore D003 fixture: output order is irrelevant here
	for k := range m {
		fmt.Println(k)
	}
}

// Quiet's scratch is genuinely unencoded and justified: the skip is
// load-bearing, no finding.
type Quiet struct {
	n uint64
	//snap:skip fixture: scratch buffer rebuilt on demand
	scratch []byte
}

// Snap moves n.
func (q *Quiet) Snap(s *snap.Stream) {
	s.U64(&q.n)
}

// Slot's home is genuinely unreset and justified: the keep is
// load-bearing, no finding.
type Slot struct {
	used bool
	//reset:keep fixture: back-pointer wired once at construction
	home *Pool
}

// reset clears the mutable flag.
func (s *Slot) reset() {
	s.used = false
}

// TakeSlot recycles a Slot from the arena root.
func (p *Pool) TakeSlot(s *Slot) *Slot {
	s.reset()
	return s
}
