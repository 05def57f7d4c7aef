// Package rng provides deterministic, splittable pseudo-random number
// generation for the PASNet simulator.
//
// All randomness in the repository — secret-share masks, Beaver triples,
// synthetic datasets, weight initialization — flows through this package so
// that experiments are reproducible bit-for-bit from a single seed. The
// generator is xoshiro256**, seeded via SplitMix64 as recommended by its
// authors. It is NOT a cryptographically secure generator; the simulator
// trades CSPRNG hardness for reproducibility.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for stream splitting.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
	// gauss caches the spare variate from the Box-Muller transform.
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded from the given seed via SplitMix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state; the parent advances once.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// MixSeed derives a child seed by folding the given values into a
// SplitMix64 stream started from seed. It is the stable seed-derivation
// helper for keyed streams (e.g. one dealer stream per batch geometry):
// deterministic, order-sensitive, and well-dispersed for near-equal keys.
// Each step folds the fully-diffused previous output back into the state,
// so permuting the values changes the result (a plain accumulator would
// collide for any rank-and-sum-equal key pair).
func MixSeed(seed uint64, vs ...uint64) uint64 {
	state := seed
	out := splitMix64(&state)
	for _, v := range vs {
		state ^= out + v
		out = splitMix64(&state)
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method over 64 bits.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 computes the 128-bit product of a and b.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= t << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal variate (Box-Muller).
func (r *RNG) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillUint32 fills dst with uniform 32-bit values.
func (r *RNG) FillUint32(dst []uint32) {
	for i := range dst {
		dst[i] = r.Uint32()
	}
}

// FillUint64 fills dst with uniform 64-bit values: exactly the words
// len(dst) calls to Uint64 would return, leaving r in the same state. The
// xoshiro step is written out over locals so the state stays in registers
// for the whole fill; it is the hot loop of every dealer draw and store
// regeneration.
func (r *RNG) FillUint64(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// FillNorm fills dst with N(0, sigma^2) variates.
func (r *RNG) FillNorm(dst []float64, sigma float64) {
	for i := range dst {
		dst[i] = r.Norm() * sigma
	}
}

// FillUniform fills dst with uniform values in [lo, hi).
func (r *RNG) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = lo + (hi-lo)*r.Float64()
	}
}
