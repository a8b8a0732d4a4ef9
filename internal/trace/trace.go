// Package trace records simulator events — VM exits, injections, virtual
// ticks — into a bounded ring buffer and renders perf(1)-style summaries.
// It substitutes for the paper's use of `perf record` to measure VM exits
// (§6.1).
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"paratick/internal/sim"
)

// Kind classifies trace events.
type Kind int

const (
	// KindExit is a VM exit; Detail carries the exit reason.
	KindExit Kind = iota
	// KindInject is an interrupt injection; Detail carries the vector.
	KindInject
	// KindVirtualTick is a paratick vector-235 injection decision.
	KindVirtualTick
	// KindSched is a host scheduling action (dispatch, halt, wake).
	KindSched
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindExit:
		return "exit"
	case KindInject:
		return "inject"
	case KindVirtualTick:
		return "vtick"
	case KindSched:
		return "sched"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one trace record. Dur, when positive, is the event's cost span
// (e.g. the host-side handling time of a VM exit); zero-duration events are
// instants (injections, scheduling edges).
type Event struct {
	When   sim.Time
	Dur    sim.Time
	Kind   Kind
	PCPU   int
	VM     string
	VCPU   int
	Detail string
}

// String renders the event as one trace line.
func (e Event) String() string {
	if e.Dur > 0 {
		return fmt.Sprintf("%12v pcpu%-3d %s/vcpu%-3d %-7s %s (+%v)",
			e.When, e.PCPU, e.VM, e.VCPU, e.Kind, e.Detail, e.Dur)
	}
	return fmt.Sprintf("%12v pcpu%-3d %s/vcpu%-3d %-7s %s",
		e.When, e.PCPU, e.VM, e.VCPU, e.Kind, e.Detail)
}

// Buffer is a bounded ring of trace events plus running aggregates. A nil
// *Buffer is a valid no-op tracer, so call sites need no nil checks.
type Buffer struct {
	cap    int
	events []Event
	//snap:skip ring cursor, rewound to the start before the ring moves
	next int
	//snap:skip ring state, re-derived from the moved ring's length
	full   bool
	total  uint64
	counts map[countKey]uint64
	first  sim.Time
	last   sim.Time
}

// NewBuffer creates a ring holding up to capacity events (aggregates are
// unbounded).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Buffer{cap: capacity, counts: make(map[countKey]uint64)}
}

// countKey is one aggregate row: a kind and a detail. Counting under the
// pair lets Record count without building a string; the "kind/detail" name
// a row is rendered and checkpointed under is built only there.
type countKey struct {
	kind   Kind
	detail string
}

// String renders the key as "kind/detail".
func (k countKey) String() string { return k.kind.String() + "/" + k.detail }

// parseCountKey is the inverse of countKey.String.
func parseCountKey(name string) (countKey, bool) {
	kind, detail, ok := strings.Cut(name, "/")
	if !ok {
		return countKey{}, false
	}
	for k := KindExit; k <= KindSched; k++ {
		if kind == k.String() {
			return countKey{k, detail}, true
		}
	}
	if n, ok := strings.CutPrefix(kind, "kind("); ok {
		if n, ok := strings.CutSuffix(n, ")"); ok {
			if v, err := strconv.Atoi(n); err == nil && Kind(v).String() == kind {
				return countKey{Kind(v), detail}, true
			}
		}
	}
	return countKey{}, false
}

// Record appends an event; older events are overwritten once the ring is
// full. Timestamps are usually non-decreasing, but hosts with several event
// sources may record slightly out of order — first/last are tracked as
// min/max so Summary's window (and its rates) can never go negative.
func (b *Buffer) Record(e Event) {
	if b == nil {
		return
	}
	if b.total == 0 {
		b.first = e.When
		b.last = e.When
	} else {
		if e.When < b.first {
			b.first = e.When
		}
		if e.When > b.last {
			b.last = e.When
		}
	}
	b.total++
	b.counts[countKey{e.Kind, e.Detail}]++
	if len(b.events) < b.cap {
		b.events = append(b.events, e)
		return
	}
	b.events[b.next] = e
	b.next = (b.next + 1) % b.cap
	b.full = true
}

// Cap returns the ring capacity.
func (b *Buffer) Cap() int {
	if b == nil {
		return 0
	}
	return b.cap
}

// Total returns the number of events recorded (including overwritten ones).
func (b *Buffer) Total() uint64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	if !b.full {
		out := make([]Event, len(b.events))
		copy(out, b.events)
		return out
	}
	out := make([]Event, 0, b.cap)
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}

// Merge combines per-lane buffers into one buffer of the given capacity,
// ordered canonically by (timestamp, lane index, per-lane record order).
// Each lane records into a private ring (so concurrent shards never share
// one), and the merge is a pure function of the lane buffers — identical
// for every shard count that produced the same lane schedules. Aggregates
// (total, counts, window) are summed across lanes, so they cover events
// the rings have already overwritten, exactly as a single shared buffer
// would have counted them.
func Merge(lanes []*Buffer, capacity int) *Buffer {
	out := NewBuffer(capacity)
	type tagged struct {
		ev   Event
		lane int
		pos  int
	}
	var all []tagged
	for l, b := range lanes {
		for i, e := range b.Events() {
			all = append(all, tagged{ev: e, lane: l, pos: i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.When != all[j].ev.When {
			return all[i].ev.When < all[j].ev.When
		}
		if all[i].lane != all[j].lane {
			return all[i].lane < all[j].lane
		}
		return all[i].pos < all[j].pos
	})
	for _, t := range all {
		out.Record(t.ev)
	}
	// Record only saw the retained events; replace the aggregates with the
	// lane sums so overwritten events stay counted.
	out.total = 0
	clear(out.counts)
	for _, b := range lanes {
		if b == nil || b.total == 0 {
			continue
		}
		if out.total == 0 || b.first < out.first {
			out.first = b.first
		}
		if out.total == 0 || b.last > out.last {
			out.last = b.last
		}
		out.total += b.total
		for k, c := range b.counts {
			out.counts[k] += c
		}
	}
	return out
}

// Count returns the number of events with the given kind and detail.
func (b *Buffer) Count(kind Kind, detail string) uint64 {
	if b == nil {
		return 0
	}
	return b.counts[countKey{kind, detail}]
}

// Summary renders a perf-style aggregate: every kind/detail pair with its
// count and rate over the traced window, sorted by count.
func (b *Buffer) Summary() string {
	if b == nil || b.total == 0 {
		return "trace: no events\n"
	}
	type row struct {
		key   string
		count uint64
	}
	rows := make([]row, 0, len(b.counts))
	for k, c := range b.counts {
		rows = append(rows, row{k.String(), c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].key < rows[j].key
	})
	window := b.last - b.first
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d events over %v\n", b.total, window)
	for _, r := range rows {
		rate := ""
		if window > 0 {
			rate = fmt.Sprintf("%10.1f/s", float64(r.count)/window.Seconds())
		}
		fmt.Fprintf(&sb, "  %-32s %10d %s\n", r.key, r.count, rate)
	}
	return sb.String()
}

// Dump renders the retained events, newest last.
func (b *Buffer) Dump() string {
	evs := b.Events()
	if len(evs) == 0 {
		return "trace: empty\n"
	}
	var sb strings.Builder
	for _, e := range evs {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
