package sim

import (
	"math"

	"paratick/internal/snap"
)

// Rand is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It exists instead of math/rand so
// that the generator's sequence is fixed by this repository forever —
// reproduction results must not change when the Go standard library
// reshuffles its generators.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via SplitMix64. Any seed,
// including zero, produces a valid non-degenerate state.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place, exactly as NewRand(seed)
// would, without allocating. It lets pooled engines restart their stream
// for a fresh run.
//
//paratick:noalloc
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro requires a nonzero state; SplitMix64 cannot produce four
	// zeros, but guard anyway for clarity.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

//paratick:noalloc
func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
//
//paratick:noalloc
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform Time in [0, d). d must be positive.
func (r *Rand) Duration(d Time) Time {
	return Time(r.Int63n(int64(d)))
}

// Between returns a uniform Time in [lo, hi). It panics if hi <= lo.
func (r *Rand) Between(lo, hi Time) Time {
	if hi <= lo {
		panic("sim: Between with hi <= lo")
	}
	return lo + r.Duration(hi-lo)
}

// Exp returns an exponentially distributed Time with the given mean,
// truncated to at least 1ns. It is used for inter-arrival jitter in the
// workload generators.
func (r *Rand) Exp(mean Time) Time {
	if mean <= 0 {
		return 1
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := Time(-float64(mean) * math.Log(u))
	if d < 1 {
		d = 1
	}
	return d
}

// Jitter returns d perturbed by a uniform factor in [1-f, 1+f], clamped to a
// minimum of 1ns. f should be in [0, 1].
func (r *Rand) Jitter(d Time, f float64) Time {
	if d <= 0 || f <= 0 {
		return MaxTime(d, 1)
	}
	lo := float64(d) * (1 - f)
	hi := float64(d) * (1 + f)
	v := Time(lo + (hi-lo)*r.Float64())
	if v < 1 {
		v = 1
	}
	return v
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Fork derives an independent generator whose stream is a pure function of
// this generator's state and the tag. Used to give every vCPU/task its own
// stream so adding one component does not shift the randomness of others.
func (r *Rand) Fork(tag uint64) *Rand {
	dst := &Rand{}
	r.ForkInto(dst, tag)
	return dst
}

// ForkInto reseeds dst exactly as Fork(tag) would seed a fresh generator,
// without allocating. It lets pooled components restart their derived
// streams on reuse: a recycled task calling ForkInto at the same point in
// the parent's draw order ends up with bit-identical state to a fresh one.
//
//paratick:noalloc
func (r *Rand) ForkInto(dst *Rand, tag uint64) {
	dst.Reseed(r.Uint64() ^ (tag * 0x9e3779b97f4a7c15))
}

// Snap moves the generator's full state through a checkpoint stream, so a
// restored generator resumes the stream at exactly the saved point. An
// all-zero xoshiro state is degenerate (the stream is stuck at zero) and
// only a corrupted snapshot can hold one, so it is corrected the way
// Reseed guards.
func (r *Rand) Snap(s *snap.Stream) {
	for i := range r.s {
		s.U64(&r.s[i])
	}
	if r.s == [4]uint64{} {
		r.s[0] = 1
	}
}
