package trace

// Checkpoint encoding of the trace buffer. The ring moves in chronological
// order (the write cursor is rewound to the start first) and the aggregate
// count map under sorted keys — equal trace states always produce equal
// bytes.

import (
	"slices"
	"sort"

	"paratick/internal/snap"
)

// Snap moves the buffer. A nil buffer moves an explicit absent marker; a
// snapshot recording none leaves an attached buffer as rebuilt. Decoding
// requires a buffer of the same capacity.
func (b *Buffer) Snap(s *snap.Stream) {
	s.Section("trace")
	present := b != nil
	s.Bool(&present)
	if !present {
		return
	}
	if b == nil {
		s.Failf("trace: snapshot carries a trace buffer but none is attached")
		return
	}
	capacity := uint64(b.cap)
	s.U64(&capacity)
	if capacity != uint64(b.cap) {
		s.Failf("trace: snapshot buffer capacity %d does not match configured %d", capacity, b.cap)
	}
	s.U64(&b.total)
	snap.Int(s, &b.first)
	snap.Int(s, &b.last)
	b.rewind()
	for i := range snap.Slice(s, &b.events) {
		e := &b.events[i]
		snap.Int(s, &e.When)
		snap.Int(s, &e.Dur)
		snap.Int(s, &e.Kind)
		snap.Int(s, &e.PCPU)
		s.String(&e.VM)
		snap.Int(s, &e.VCPU)
		s.String(&e.Detail)
	}
	if len(b.events) > b.cap {
		s.Failf("trace: snapshot ring holds %d events, capacity %d", len(b.events), b.cap)
	}
	b.full = len(b.events) >= b.cap

	// The count map moves as its rows, sorted by their "kind/detail" names;
	// decoding rebuilds it from the names.
	var rows []countKey
	if s.Decoding() {
		clear(b.counts)
	} else {
		for k := range b.counts {
			rows = append(rows, k)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].String() < rows[j].String() })
	}
	for i := range snap.Slice(s, &rows) {
		name := rows[i].String()
		n := b.counts[rows[i]]
		s.String(&name)
		s.U64(&n)
		if s.Decoding() {
			key, ok := parseCountKey(name)
			if !ok {
				s.Failf("trace: snapshot count row %q is not kind/detail", name)
				return
			}
			b.counts[key] = n
		}
	}
}

// rewind rotates a wrapped ring into chronological order with the write
// cursor back at the start. Events and every later Record behave exactly as
// before; only the layout changes, to the one Snap moves.
func (b *Buffer) rewind() {
	if b.next != 0 {
		slices.Reverse(b.events[:b.next])
		slices.Reverse(b.events[b.next:])
		slices.Reverse(b.events)
		b.next = 0
	}
	b.full = len(b.events) >= b.cap
}
