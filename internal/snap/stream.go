package snap

import "fmt"

// Stream moves state through one body in either direction. A component
// writes a single Snap(s *Stream) method naming each field once —
// s.U64(&c.Injections), Int(s, &v.sliceStart) — and the stream either
// encodes the field's current value or decodes into it. Because the save
// and the load are the same statement list, a field cannot be transposed,
// skipped, or added on one side only.
//
// The few genuinely asymmetric steps (re-binding a closure, resolving an
// identifier back to a live object) branch on Decoding. Errors are sticky
// in both directions: after the first failure decoding yields zero values,
// and Err reports the original cause.
type Stream struct {
	enc *Encoder
	dec *Decoder
	err error // first encode-side failure; decode failures live in dec.err
}

// Snapper is implemented by every type with a Snap body.
type Snapper interface {
	Snap(s *Stream)
}

// Encode runs v's Snap body in the encoding direction, appending to enc.
func Encode(enc *Encoder, v Snapper) error {
	s := NewWriter(enc)
	v.Snap(s)
	return s.Err()
}

// Decode runs v's Snap body in the decoding direction, reading from dec.
func Decode(dec *Decoder, v Snapper) error {
	s := NewReader(dec)
	v.Snap(s)
	return s.Err()
}

// NewWriter returns an encoding stream appending to enc.
func NewWriter(enc *Encoder) *Stream { return &Stream{enc: enc} }

// NewReader returns a decoding stream reading from dec.
func NewReader(dec *Decoder) *Stream { return &Stream{dec: dec} }

// Decoding reports whether the stream restores state (true) or saves it.
func (s *Stream) Decoding() bool { return s.dec != nil }

// Err returns the first failure in either direction, or nil.
func (s *Stream) Err() error {
	if s.dec != nil {
		return s.dec.err
	}
	return s.err
}

// Failf records a failure unless one is already recorded. While decoding,
// every later read then yields a zero value, so a body can keep going
// straight-line after a failed check.
func (s *Stream) Failf(format string, args ...any) {
	if s.dec != nil {
		if s.dec.err == nil {
			s.dec.err = fmt.Errorf(format, args...)
		}
		return
	}
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// move is the body every scalar primitive shares: decode into *p, or
// encode *p.
func move[T any](s *Stream, p *T, dec func(*Decoder) T, enc func(*Encoder, T)) {
	if s.dec != nil {
		*p = dec(s.dec)
	} else {
		enc(s.enc, *p)
	}
}

// U8 moves one byte.
func (s *Stream) U8(p *uint8) { move(s, p, (*Decoder).U8, (*Encoder).U8) }

// U32 moves a uint32.
func (s *Stream) U32(p *uint32) { move(s, p, (*Decoder).U32, (*Encoder).U32) }

// U64 moves a uint64.
func (s *Stream) U64(p *uint64) { move(s, p, (*Decoder).U64, (*Encoder).U64) }

// I64 moves an int64.
func (s *Stream) I64(p *int64) { move(s, p, (*Decoder).I64, (*Encoder).I64) }

// Bool moves a bool.
func (s *Stream) Bool(p *bool) { move(s, p, (*Decoder).Bool, (*Encoder).Bool) }

// String moves a length-prefixed string.
func (s *Stream) String(p *string) { move(s, p, (*Decoder).String, (*Encoder).String) }

// Section writes or verifies a named marker (see Encoder.Section).
func (s *Stream) Section(name string) {
	if s.dec != nil {
		s.dec.Section(name)
	} else {
		s.enc.Section(name)
	}
}

// Len moves the length of a collection the restore target already has at
// its final size (it was rebuilt from the same specification): encoding
// writes n, decoding fails unless the snapshot recorded exactly n. what
// names the collection in the error.
func (s *Stream) Len(n int, what string) {
	if s.dec == nil {
		s.enc.U32(uint32(n))
		return
	}
	if got := s.dec.U32(); s.dec.err == nil && int64(got) != int64(n) {
		s.dec.fail("snapshot has %d %s, restore target has %d", got, what, n)
	}
}

// Integer is the set of integer kinds Int and Byte move: sim.Time, int,
// and the simulator's integer-backed enums.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Int moves an integer-kinded value as an int64 (Encoder.I64).
func Int[T Integer](s *Stream, p *T) {
	v := int64(*p)
	if s.I64(&v); s.dec != nil {
		*p = T(v)
	}
}

// Byte moves a small integer-kinded value (an enum) as one byte.
func Byte[T Integer](s *Stream, p *T) {
	v := uint8(*p)
	if s.U8(&v); s.dec != nil {
		*p = T(v)
	}
}

// Slice moves a slice's length and returns it. Decoding resizes *p to the
// recorded length, reusing its capacity, and zeroes the elements, so the
// caller's loop over the returned length then moves each element in place
// in both directions. Every element takes at least one byte, so a decoded
// length beyond the unread input is corrupt and fails instead of driving a
// huge allocation.
func Slice[T any](s *Stream, p *[]T) int {
	if s.dec == nil {
		s.enc.U32(uint32(len(*p)))
		return len(*p)
	}
	n := int(s.dec.U32())
	if s.dec.err == nil && n > s.dec.Remaining() {
		s.dec.fail("length %d exceeds the %d bytes left", n, s.dec.Remaining())
	}
	if s.dec.err != nil {
		n = 0
	}
	if cap(*p) < n {
		*p = make([]T, n)
	} else {
		*p = (*p)[:n]
		clear(*p)
	}
	return n
}
