package unused

import (
	"fmt"

	"paratick/internal/snap"
)

// Stale guards a slice range, which D003 never flags: the directive
// suppresses nothing. One U001 finding.
func Stale(s []int) {
	//lint:ignore D003 fixture: slices iterate in order anyway
	for _, v := range s {
		fmt.Println(v)
	}
}

// Reasonless fails to suppress the map range (one D003 finding) and the
// bare directive is dead weight (one U001 finding).
func Reasonless(m map[string]int) {
	//lint:ignore D003
	for k := range m {
		fmt.Println(k)
	}
}

// State's seen field is moved by Snap, so its skip annotation excuses a
// field S001 already covers: one U001 finding.
type State struct {
	value uint64
	//snap:skip fixture: re-derived on load
	seen uint64
}

// Snap moves both fields.
func (st *State) Snap(s *snap.Stream) {
	s.U64(&st.value)
	s.U64(&st.seen)
}

// Cache's entries field is uncovered and its skip has no reason: one
// S001 finding (the bare skip excuses nothing) plus one U001 finding.
type Cache struct {
	//snap:skip
	entries map[string]int
	hits    uint64
}

// Snap moves only hits.
func (c *Cache) Snap(s *snap.Stream) {
	s.U64(&c.hits)
}

// Pool recycles Conn values; configured as the fixture's arena root.
type Pool struct {
	free []*Conn
}

// Take recycles a Conn.
func (p *Pool) Take() *Conn {
	c := p.free[0]
	c.reset()
	return c
}

// Conn's id is zeroed by reset, so its keep annotation excuses a field
// R001 already covers: one U001 finding.
type Conn struct {
	//reset:keep fixture: identity survives reuse
	id int
}

// reset zeroes id.
func (c *Conn) reset() {
	c.id = 0
}
