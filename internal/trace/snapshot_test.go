package trace

import (
	"testing"

	"paratick/internal/sim"
	"paratick/internal/snap"
)

func record(b *Buffer, n int) {
	for i := 0; i < n; i++ {
		b.Record(Event{
			When: sim.Time(i) * sim.Microsecond, Kind: Kind(i % 4),
			PCPU: i % 3, VM: "vm0", VCPU: i % 2, Detail: "d",
		})
	}
}

func TestBufferSaveLoad(t *testing.T) {
	for _, n := range []int{0, 3, 8, 13} { // below, at, and beyond capacity 8
		src := NewBuffer(8)
		record(src, n)
		var enc snap.Encoder
		if err := snap.Encode(&enc, src); err != nil {
			t.Fatal(err)
		}
		var again snap.Encoder
		if err := snap.Encode(&again, src); err != nil || string(again.Bytes()) != string(enc.Bytes()) {
			t.Fatalf("n=%d: re-encoding the rewound ring changed the bytes (%v)", n, err)
		}

		dst := NewBuffer(8)
		if err := snap.Decode(snap.NewDecoder(enc.Bytes()), dst); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if dst.Total() != src.Total() {
			t.Fatalf("n=%d: total %d != %d", n, dst.Total(), src.Total())
		}
		se, de := src.Events(), dst.Events()
		if len(se) != len(de) {
			t.Fatalf("n=%d: events %d != %d", n, len(de), len(se))
		}
		for i := range se {
			if se[i] != de[i] {
				t.Fatalf("n=%d: event %d differs", n, i)
			}
		}
		if src.Summary() != dst.Summary() {
			t.Fatalf("n=%d: summaries differ", n)
		}

		// Recording after restore must behave like the original buffer.
		record(src, 5)
		record(dst, 5)
		if src.Summary() != dst.Summary() || src.Dump() != dst.Dump() {
			t.Fatalf("n=%d: post-restore recording diverged", n)
		}
	}
}

func TestNilBufferSaveLoad(t *testing.T) {
	var nilBuf *Buffer
	var enc snap.Encoder
	if err := snap.Encode(&enc, nilBuf); err != nil {
		t.Fatal(err)
	}
	dst := NewBuffer(4)
	record(dst, 2)
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), dst); err != nil || dst.Total() != 2 {
		t.Fatalf("nil buffer round trip: total=%d err=%v", dst.Total(), err)
	}
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), nilBuf); err != nil {
		t.Fatalf("nil into nil: %v", err)
	}
	var full snap.Encoder
	if err := snap.Encode(&full, dst); err != nil {
		t.Fatal(err)
	}
	if err := snap.Decode(snap.NewDecoder(full.Bytes()), nilBuf); err == nil {
		t.Fatal("a recorded buffer decoded into a nil tracer")
	}
}

func TestLoadRejectsCapacityMismatch(t *testing.T) {
	src := NewBuffer(8)
	record(src, 2)
	var enc snap.Encoder
	if err := snap.Encode(&enc, src); err != nil {
		t.Fatal(err)
	}
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), NewBuffer(16)); err == nil {
		t.Fatal("capacity mismatch not rejected")
	}
}

// TestBufferSaveLoadKeepsCountRows round-trips count rows whose names are
// the hardest to split back into a kind and a detail: a kind outside the
// named four and details that contain the separator.
func TestBufferSaveLoadKeepsCountRows(t *testing.T) {
	src := NewBuffer(2)
	rows := []struct {
		kind   Kind
		detail string
	}{{KindExit, "a/b"}, {Kind(7), "x"}, {Kind(-1), "/"}, {KindSched, ""}}
	for i, r := range rows {
		for n := 0; n <= i; n++ {
			src.Record(Event{When: sim.Time(i), Kind: r.kind, Detail: r.detail})
		}
	}
	var enc snap.Encoder
	if err := snap.Encode(&enc, src); err != nil {
		t.Fatal(err)
	}
	dst := NewBuffer(2)
	if err := snap.Decode(snap.NewDecoder(enc.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if got := dst.Count(r.kind, r.detail); got != uint64(i+1) {
			t.Errorf("restored Count(%v, %q) = %d, want %d", r.kind, r.detail, got, i+1)
		}
	}
	if src.Summary() != dst.Summary() {
		t.Fatalf("summaries differ:\n%s\n%s", src.Summary(), dst.Summary())
	}
}

// TestParseCountKeyRejectsMalformedNames covers the names a corrupt
// checkpoint can carry in place of a count row.
func TestParseCountKeyRejectsMalformedNames(t *testing.T) {
	for _, name := range []string{"", "exit", "bogus/x", "kind(x)/y", "kind(07)/y", "kind(1/y"} {
		if k, ok := parseCountKey(name); ok {
			t.Errorf("parseCountKey(%q) = %v, want a refusal", name, k)
		}
	}
}
