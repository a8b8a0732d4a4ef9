package snap

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var e Encoder
	WriteHeader(&e, "test")
	e.Section("scalars")
	e.U8(0xab)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)
	e.F64(3.14159)
	e.String("hello, snapshot")
	e.String("")

	d := NewDecoder(e.Bytes())
	if err := ReadHeader(d, "test"); err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	d.Section("scalars")
	if got := d.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Bool(); !got {
		t.Errorf("Bool = false, want true")
	}
	if got := d.Bool(); got {
		t.Errorf("Bool = true, want false")
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestStickyError(t *testing.T) {
	var e Encoder
	e.U32(7)
	d := NewDecoder(e.Bytes())
	_ = d.U64() // truncated
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	first := d.Err()
	_ = d.U64()
	_ = d.String()
	if d.Err() != first {
		t.Error("error was not sticky")
	}
	if got := d.U32(); got != 0 {
		t.Errorf("post-error read = %d, want 0", got)
	}
}

func TestSectionMismatch(t *testing.T) {
	var e Encoder
	e.Section("alpha")
	d := NewDecoder(e.Bytes())
	d.Section("beta")
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "beta") {
		t.Fatalf("section mismatch error = %v", d.Err())
	}
}

// TestSectionMatchAllocatesNothing pins that a matching section marker is
// checked in place: restoring a checkpoint verifies one marker per
// component, so a copy of each stored name would cost an allocation apiece.
func TestSectionMatchAllocatesNothing(t *testing.T) {
	var e Encoder
	e.Section("pcpu:12")
	buf := e.Bytes()
	id := 12
	allocs := testing.AllocsPerRun(100, func() {
		d := Decoder{buf: buf}
		d.Section("pcpu:" + strconv.Itoa(id))
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("matching Section allocates %v objects, want 0", allocs)
	}
}

func TestHeaderRejectsWrongKind(t *testing.T) {
	var e Encoder
	WriteHeader(&e, "scenario")
	if err := ReadHeader(NewDecoder(e.Bytes()), "engine"); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	if err := ReadHeader(NewDecoder([]byte("not a snapshot at all")), "x"); err == nil {
		t.Fatal("expected magic error")
	}
	if err := ReadHeader(NewDecoder(nil), "x"); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestNaNCanonical(t *testing.T) {
	var e1, e2 Encoder
	e1.F64(math.NaN())
	e2.F64(math.Float64frombits(0x7ff8000000000001)) // NaN with a payload bit
	b1, b2 := e1.Bytes(), e2.Bytes()
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("NaN encodings differ: % x vs % x", b1, b2)
		}
	}
	if v := NewDecoder(b1).F64(); !math.IsNaN(v) {
		t.Errorf("decoded NaN = %v", v)
	}
}

func TestBadBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	_ = d.Bool()
	if d.Err() == nil {
		t.Fatal("expected invalid bool error")
	}
}

func TestHashBytesStable(t *testing.T) {
	// Pinned FNV-1a vectors: the digest feeds golden files, so its value
	// must never drift.
	if got := HashBytes(nil); got != 0xcbf29ce484222325 {
		t.Errorf("HashBytes(nil) = %s", got)
	}
	if got := HashBytes([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Errorf("HashBytes(a) = %s", got)
	}
}
