package snap

import (
	"reflect"
	"strings"
	"testing"
)

type level uint8

// sample exercises every Stream primitive from one body.
type sample struct {
	b     uint8
	u32   uint32
	u64   uint64
	i64   int64
	on    bool
	name  string
	n     int
	lvl   level
	items []int64
	fixed [3]uint64
}

func (x *sample) Snap(s *Stream) {
	s.Section("sample")
	s.U8(&x.b)
	s.U32(&x.u32)
	s.U64(&x.u64)
	s.I64(&x.i64)
	s.Bool(&x.on)
	s.String(&x.name)
	Int(s, &x.n)
	Byte(s, &x.lvl)
	for i := range Slice(s, &x.items) {
		s.I64(&x.items[i])
	}
	s.Len(len(x.fixed), "fixed words")
	for i := range x.fixed {
		s.U64(&x.fixed[i])
	}
}

// TestStreamRoundTrip pins that one body encodes and decodes every
// primitive, and that the stream's bytes match the Encoder's own layout.
func TestStreamRoundTrip(t *testing.T) {
	src := sample{b: 7, u32: 1 << 30, u64: 1 << 60, i64: -5, on: true, name: "lane",
		n: -123, lvl: 3, items: []int64{4, -4, 9}, fixed: [3]uint64{1, 2, 3}}
	var enc Encoder
	if err := Encode(&enc, &src); err != nil {
		t.Fatal(err)
	}
	var want Encoder
	want.Section("sample")
	want.U8(7)
	want.U32(1 << 30)
	want.U64(1 << 60)
	want.I64(-5)
	want.Bool(true)
	want.String("lane")
	want.I64(-123)
	want.U8(3)
	want.U32(3)
	for _, v := range src.items {
		want.I64(v)
	}
	want.U32(3)
	for _, v := range src.fixed {
		want.U64(v)
	}
	if string(enc.Bytes()) != string(want.Bytes()) {
		t.Fatal("stream encoding differs from the equivalent Encoder calls")
	}

	dst := sample{items: make([]int64, 8)}
	dec := NewDecoder(enc.Bytes())
	if err := Decode(dec, &dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, dst) || dec.Remaining() != 0 {
		t.Fatalf("decoded %+v, want %+v (%d bytes left)", dst, src, dec.Remaining())
	}
}

// TestStreamRejects pins the decode-side guards: a length the restore
// target cannot hold, a count the input cannot back, and a sticky Failf.
func TestStreamRejects(t *testing.T) {
	var enc Encoder
	if err := Encode(&enc, &sample{}); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()

	// The fixed-length count sits right after the empty item count.
	bad := append([]byte(nil), data...)
	bad[len(bad)-3*8-4] = 4
	if err := Decode(NewDecoder(bad), &sample{}); err == nil || !strings.Contains(err.Error(), "fixed words") {
		t.Fatalf("length mismatch: err = %v", err)
	}

	var huge Encoder
	huge.U32(1 << 30)
	s := NewReader(NewDecoder(huge.Bytes()))
	var items []int64
	if n := Slice(s, &items); n != 0 || s.Err() == nil {
		t.Fatalf("oversized count: n=%d err=%v", n, s.Err())
	}

	s = NewReader(NewDecoder(data))
	s.Failf("first %d", 1)
	s.Failf("second")
	var b uint8 = 9
	s.U8(&b)
	if s.Err() == nil || s.Err().Error() != "first 1" || b != 0 {
		t.Fatalf("after Failf: err=%v, read %d", s.Err(), b)
	}

	w := NewWriter(&Encoder{})
	w.Failf("encode side")
	if w.Err() == nil || w.Decoding() {
		t.Fatal("an encoding stream lost its failure")
	}
}
