// Package snap is the stable binary encoding layer under the simulator's
// checkpoint/restore machinery. Every stateful component (sim engine
// scalars, guest kernels, host vCPUs, devices, metrics) has one Snap body
// that moves its fields through a Stream — encoding into an Encoder or
// decoding from a Decoder, with the same statements; the format is
// versioned, fixed-width, little-endian, and deliberately free of anything
// whose byte representation could vary between runs or platforms (no maps,
// no pointers, no varints whose length depends on incidental magnitudes).
//
// Determinism contract: encoding the same logical state must always
// produce the same bytes. Callers therefore must never range over a map
// while moving through an Encoder or Stream (paratick-vet rule D003) —
// collect keys, sort, then encode.
//
// The package is a leaf: it imports only the standard library, so every
// layer of the simulator can depend on it without cycles.
package snap

import (
	"fmt"
	"math"
	"strings"
)

// Magic opens every snapshot produced by WriteHeader. Changing the format
// incompatibly must bump Version, never reuse it.
const Magic = "PTSNAP"

// Version is the current snapshot format version.
const Version = 2

// Encoder appends fixed-width little-endian primitives to a growing
// buffer. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer. The slice aliases the encoder's
// storage; callers that keep it past further writes must copy.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 writes a fixed-width little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 writes a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 writes an int64 as its two's-complement uint64 image.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool writes a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 writes a float64 by its IEEE-754 bit image. NaNs are canonicalized
// so logically-equal states cannot differ by NaN payload bits.
func (e *Encoder) F64(v float64) {
	bits := math.Float64bits(v)
	if v != v { // NaN: canonicalize the payload
		bits = 0x7ff8000000000000
	}
	e.U64(bits)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Section writes a named marker. Decoders verify the marker with
// Decoder.Section, which turns encode/decode skew into an immediate,
// labeled error instead of silently misparsed state.
func (e *Encoder) Section(name string) {
	e.U32(sectionMagic)
	e.String(name)
}

const sectionMagic = 0x5ec710f1

// Decoder reads primitives back in the order they were encoded. Errors
// are sticky: after the first failure every read returns a zero value and
// Err reports the original cause, so Snap bodies can be written
// straight-line with one error check at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snap: "+format+" at offset %d", append(args, d.off)...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated: need %d bytes, have %d", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a bool; any byte other than 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte")
		return false
	}
}

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.lenBytes()) }

// lenBytes reads a length-prefixed string's bytes in place: the result
// aliases the buffer, and is nil after a failure.
func (d *Decoder) lenBytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int(n) > d.Remaining() {
		d.fail("truncated string: length %d exceeds %d remaining", n, d.Remaining())
		return nil
	}
	return d.take(int(n))
}

// Section verifies the next bytes are the named marker written by
// Encoder.Section without allocating: the stored name is compared where it
// lies. Only a failure retains name (as a copy), so callers may build it on
// the stack.
func (d *Decoder) Section(name string) {
	if m := d.U32(); d.err == nil && m != sectionMagic {
		d.fail("expected section %q, found non-section data", strings.Clone(name))
		return
	}
	if got := d.lenBytes(); d.err == nil && string(got) != name {
		d.fail("expected section %q, found %q", strings.Clone(name), string(got))
	}
}

// WriteHeader opens a snapshot stream: magic, format version, and a
// caller-chosen kind tag naming what the snapshot contains.
func WriteHeader(e *Encoder, kind string) {
	e.buf = append(e.buf, Magic...)
	e.U32(Version)
	e.String(kind)
}

// ReadHeader validates the magic, version, and kind tag written by
// WriteHeader.
func ReadHeader(d *Decoder, kind string) error {
	m := d.take(len(Magic))
	if d.err != nil {
		return d.err
	}
	if string(m) != Magic {
		return fmt.Errorf("snap: bad magic %q (not a snapshot)", m)
	}
	if v := d.U32(); d.err == nil && v != Version {
		return fmt.Errorf("snap: unsupported snapshot version %d (want %d)", v, Version)
	}
	if k := d.String(); d.err == nil && k != kind {
		return fmt.Errorf("snap: snapshot kind %q, want %q", k, kind)
	}
	return d.err
}

// Digest is a 64-bit FNV-1a hash used for state digests: cheap, stable,
// and dependency-free. It is a corruption/divergence detector, not a
// cryptographic commitment.
type Digest uint64

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// HashBytes returns the FNV-1a digest of b.
func HashBytes(b []byte) Digest {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return Digest(h)
}

// String renders the digest as fixed-width hex.
func (d Digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }
