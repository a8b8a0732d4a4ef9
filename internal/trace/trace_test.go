package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"paratick/internal/sim"
)

func ev(when sim.Time, kind Kind, detail string) Event {
	return Event{When: when, Kind: kind, PCPU: 0, VM: "vm", VCPU: 0, Detail: detail}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindExit: "exit", KindInject: "inject", KindVirtualTick: "vtick", KindSched: "sched",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind string")
	}
}

func TestNilBufferIsNoop(t *testing.T) {
	var b *Buffer
	b.Record(ev(1, KindExit, "hlt")) // must not panic
	if b.Total() != 0 || b.Events() != nil || b.Count(KindExit, "hlt") != 0 {
		t.Fatal("nil buffer should be empty")
	}
}

func TestRecordAndCount(t *testing.T) {
	b := NewBuffer(16)
	b.Record(ev(1, KindExit, "hlt"))
	b.Record(ev(2, KindExit, "hlt"))
	b.Record(ev(3, KindExit, "msr-write"))
	b.Record(ev(4, KindInject, "paratick(235)"))
	if b.Total() != 4 {
		t.Fatalf("Total = %d", b.Total())
	}
	if b.Count(KindExit, "hlt") != 2 {
		t.Fatalf("Count(exit/hlt) = %d", b.Count(KindExit, "hlt"))
	}
	if b.Count(KindInject, "paratick(235)") != 1 {
		t.Fatal("inject count wrong")
	}
	if b.Count(KindExit, "nope") != 0 {
		t.Fatal("phantom count")
	}
}

func TestRingOverwrite(t *testing.T) {
	b := NewBuffer(3)
	for i := 1; i <= 5; i++ {
		b.Record(ev(sim.Time(i), KindExit, "hlt"))
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	// Chronological: 3,4,5.
	for i, want := range []sim.Time{3, 4, 5} {
		if evs[i].When != want {
			t.Fatalf("events = %v", evs)
		}
	}
	// Aggregates count all 5.
	if b.Total() != 5 || b.Count(KindExit, "hlt") != 5 {
		t.Fatal("aggregates lost on overwrite")
	}
}

func TestNewBufferClampsCapacity(t *testing.T) {
	b := NewBuffer(0)
	b.Record(ev(1, KindExit, "x"))
	b.Record(ev(2, KindExit, "x"))
	if got := len(b.Events()); got != 1 {
		t.Fatalf("capacity-0 buffer retained %d", got)
	}
}

func TestSummary(t *testing.T) {
	b := NewBuffer(8)
	b.Record(ev(0, KindExit, "msr-write"))
	b.Record(ev(sim.Second, KindExit, "msr-write"))
	b.Record(ev(2*sim.Second, KindExit, "hlt"))
	s := b.Summary()
	if !strings.Contains(s, "3 events over 2s") {
		t.Errorf("summary header wrong:\n%s", s)
	}
	// Sorted by count: msr-write (2) before hlt (1).
	if strings.Index(s, "msr-write") > strings.Index(s, "hlt") {
		t.Errorf("summary not sorted by count:\n%s", s)
	}
	if !strings.Contains(s, "1.0/s") {
		t.Errorf("rate missing:\n%s", s)
	}
	empty := NewBuffer(4)
	if !strings.Contains(empty.Summary(), "no events") {
		t.Error("empty summary wrong")
	}
}

func TestDump(t *testing.T) {
	b := NewBuffer(4)
	b.Record(ev(5*sim.Microsecond, KindVirtualTick, "vector-235"))
	d := b.Dump()
	if !strings.Contains(d, "vector-235") || !strings.Contains(d, "vtick") {
		t.Errorf("dump missing fields:\n%s", d)
	}
	if !strings.Contains(NewBuffer(4).Dump(), "empty") {
		t.Error("empty dump wrong")
	}
}

// Property: the ring retains exactly min(n, cap) events, and they are the
// last n recorded, in order.
func TestRingRetentionProperty(t *testing.T) {
	f := func(nRaw, capRaw uint8) bool {
		n := int(nRaw % 100)
		capacity := int(capRaw%20) + 1
		b := NewBuffer(capacity)
		for i := 0; i < n; i++ {
			b.Record(ev(sim.Time(i), KindExit, "x"))
		}
		evs := b.Events()
		want := n
		if want > capacity {
			want = capacity
		}
		if len(evs) != want {
			return false
		}
		for i, e := range evs {
			if e.When != sim.Time(n-want+i) {
				return false
			}
		}
		return b.Total() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEventString(t *testing.T) {
	e := Event{When: 42 * sim.Microsecond, Kind: KindExit, PCPU: 3, VM: "vm1", VCPU: 7, Detail: "hlt"}
	s := e.String()
	for _, want := range []string{"42us", "pcpu3", "vm1/vcpu7", "exit", "hlt"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

// TestRecordAllocatesNothing pins that tracing an event costs no
// allocation once the ring is full and its kind/detail row exists: the
// per-kind count is keyed by the (kind, detail) pair, and the "kind/detail"
// name is built only where rows are rendered or checkpointed.
func TestRecordAllocatesNothing(t *testing.T) {
	b := NewBuffer(4)
	e := ev(1, KindExit, "msr-write")
	for i := 0; i < b.Cap(); i++ {
		b.Record(e)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Record(e) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f per event, want 0", allocs)
	}
	if got := b.Count(KindExit, "msr-write"); got != 105 {
		t.Fatalf("Count(exit/msr-write) = %d, want 105", got)
	}
}
