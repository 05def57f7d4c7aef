package mpc

import (
	"fmt"

	"pasnet/internal/rng"
)

// Stream is the one correlation generator: the single definition of how a
// dealer's randomness turns into correlations. The live Dealer deals from a
// Stream on demand, and the preprocessing store generator (internal/corr)
// deals a whole demand tape from one ahead of time, so a store built from
// seed S hands out byte-identical material to a live NewDealer(S, party) by
// construction.
//
// A Stream is two independent sub-streams, one per party, seeded from two
// words NewStream draws off its RNG. Every draw takes party 0's a, b and z
// halves off party 0's sub-stream and party 1's a and b halves off party
// 1's, in that fixed per-kind order, and defines the plain operands as
// a = a0 + a1 and b = b0 + b1 (XOR for bit triples). Party 1's z half,
// product − z0, is then the only half that is not a sub-stream's output: it
// needs the correlation's product (a ring convolution, matrix multiply or
// elementwise product), so it is left to Deal.Z1 — a party-0 consumer never
// pays for it, and a store generator can run it off the sequential stream,
// in parallel. Everything else is regenerated from one sub-stream seed by a
// half stream (NewHalfStream), which is what lets a store file hold a seed
// where it would hold masks.
//
// The FixedB draws multiply against a session-pinned weight mask b that
// never touches the stream: b is derived out-of-band from maskSeed and the
// slot (see fixedmask.go) and cached here, pinned to the length it was
// first derived at.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	r        [2]*rng.RNG // per-party sub-streams; a half stream has one
	seeds    [2]uint64
	maskSeed uint64
	masks    map[int][]uint64 // fixed weight masks by slot
}

// NewStream deals from r: it draws the two sub-stream seeds off r, party
// 0's first. maskSeed is the serving pair's dealer seed, from which fixed
// weight masks are derived; it may differ from r's seed (a store
// provisioned off a per-geometry stream must still multiply against the
// masks the session's live dealer minted).
func NewStream(r *rng.RNG, maskSeed uint64) *Stream {
	s := &Stream{maskSeed: maskSeed}
	for p := range s.r {
		s.seeds[p] = r.Uint64()
		s.r[p] = rng.New(s.seeds[p])
	}
	return s
}

// NewHalfStream returns party's side of the Stream whose party sub-stream
// seed (Seed) is seed: each draw fills only that party's halves, word for
// word the ones the full Stream deals, and leaves the other party's nil. A
// half stream runs no product, so it never derives a fixed mask and its
// deals have no Z1.
func NewHalfStream(party int, seed uint64) *Stream {
	if party != 0 && party != 1 {
		panic(fmt.Sprintf("mpc: party must be 0 or 1, got %d", party))
	}
	s := &Stream{}
	s.seeds[party] = seed
	s.r[party] = rng.New(seed)
	return s
}

// Seed returns party's sub-stream seed.
func (s *Stream) Seed(party int) uint64 { return s.seeds[party] }

// half reports whether s deals only one party's halves.
func (s *Stream) half() bool { return s.r[0] == nil || s.r[1] == nil }

// Deal is one correlation drawn off a Stream. Ring halves are additive;
// bit-triple halves are XOR, packed 64 to a word. B0 and B1 are nil for the
// kinds whose b is not dealt per correlation (square pairs and the FixedB
// kinds); a half stream's deal carries only its party's halves.
type Deal struct {
	A0, B0, Z0 []uint64 // party 0's halves
	A1, B1     []uint64 // party 1's a and b halves
	b          []uint64 // the fixed mask of the FixedB kinds
	product    func(z, a, b []uint64)
	xor        bool // bit triple: halves are XOR, not additive
}

// join returns the plain value h0 + h1, or h0 ⊕ h1 for bit triples.
func (d Deal) join(h0, h1 []uint64) []uint64 {
	out := make([]uint64, len(h0))
	if !d.xor {
		ringAdd(out, h0, h1)
		return out
	}
	for i := range out {
		out[i] = h0[i] ^ h1[i]
	}
	return out
}

// Z1 computes party 1's z half, product(a, b) − z0 (⊕ z0 for bit triples),
// from both parties' a and b halves.
func (d Deal) Z1() []uint64 {
	b := d.b
	if d.B0 != nil {
		b = d.join(d.B0, d.B1)
	}
	z := make([]uint64, len(d.Z0))
	d.product(z, d.join(d.A0, d.A1), b)
	if !d.xor {
		ringSub(z, z, d.Z0)
		return z
	}
	for i := range z {
		z[i] ^= d.Z0[i]
	}
	return z
}

// deal fills in d's halves in the stream's draw order: party 0's a, b
// (when b is dealt here, lb > 0) and z, then party 1's a and b, each off
// its party's sub-stream. Each draw takes n words, or n packed bits for
// bit triples.
func (s *Stream) deal(d Deal, la, lb, lz int) Deal {
	draw := func(r *rng.RNG, n int) []uint64 {
		if d.xor {
			return DrawBits(r, n).W
		}
		w := make([]uint64, n)
		r.FillUint64(w)
		return w
	}
	if r := s.r[0]; r != nil {
		d.A0 = draw(r, la)
		if lb > 0 {
			d.B0 = draw(r, lb)
		}
		d.Z0 = draw(r, lz)
	}
	if r := s.r[1]; r != nil {
		d.A1 = draw(r, la)
		if lb > 0 {
			d.B1 = draw(r, lb)
		}
	}
	return d
}

// Hadamard deals an elementwise Beaver triple of length n.
func (s *Stream) Hadamard(n int) Deal {
	return s.deal(Deal{product: ringMul}, n, n, n)
}

// Square deals a square pair (a, z = a ⊙ a) of length n (paper Eq. 3).
func (s *Stream) Square(n int) Deal {
	return s.deal(Deal{product: func(z, a, _ []uint64) { ringMul(z, a, a) }}, n, 0, n)
}

// MatMul deals a matrix triple for A (m×k) @ B (k×p).
func (s *Stream) MatMul(m, k, p int) Deal {
	return s.deal(Deal{product: matMulOp(m, k, p)}, m*k, k*p, m*p)
}

// Conv deals a convolution triple for the geometry.
func (s *Stream) Conv(dims ConvDims) Deal {
	return s.deal(Deal{product: convOp(dims)}, dims.InLen(), dims.KLen(), dims.OutLen())
}

// MatMulFixedB deals (a, z = a@b) against the fixed mask b (k×p) of slot
// mask; a is a fresh m×k.
func (s *Stream) MatMulFixedB(mask, m, k, p int) (Deal, error) {
	b, err := s.fixedMask(mask, k*p)
	if err != nil {
		return Deal{}, err
	}
	return s.deal(Deal{b: b, product: matMulOp(m, k, p)}, m*k, 0, m*p), nil
}

// ConvFixedB deals (a, z = conv(a, b)) against the fixed kernel mask b of
// slot mask.
func (s *Stream) ConvFixedB(mask int, dims ConvDims) (Deal, error) {
	b, err := s.fixedMask(mask, dims.KLen())
	if err != nil {
		return Deal{}, err
	}
	return s.deal(Deal{b: b, product: convOp(dims)}, dims.InLen(), 0, dims.OutLen()), nil
}

// Bits deals n AND triples (c = a AND b bitwise), GMW-style AND gates and
// the whole of the comparison protocol. Each of the five draws is one
// DrawBits, so a sub-stream advances a word per 64 triples per draw.
func (s *Stream) Bits(n int) Deal {
	and := func(z, a, b []uint64) {
		for i := range z {
			z[i] = a[i] & b[i]
		}
	}
	return s.deal(Deal{product: and, xor: true}, n, n, n)
}

// Dealer is the trusted third party of the offline phase (paper Sec. II-B:
// "an extra Beaver triple should be generated"), dealing live from a
// Stream: both parties construct a Dealer from the same seed and consume
// correlations in the same program order, so each party derives its own
// half of every correlation without any online dealer traffic — the
// standard common-seed trusted-dealer simulation used by CrypTen-style
// systems. Party 0's halves are its sub-stream's output, so only party 1
// runs the correlation products.
//
// A Dealer instance belongs to one party and is not safe for concurrent
// use.
type Dealer struct {
	s     *Stream
	party int
}

// NewDealer returns party's endpoint of a dealer stream. Both parties must
// use the same seed and distinct party IDs (0 and 1).
func NewDealer(seed uint64, party int) *Dealer {
	if party != 0 && party != 1 {
		panic(fmt.Sprintf("mpc: party must be 0 or 1, got %d", party))
	}
	return &Dealer{s: NewStream(rng.New(seed), seed), party: party}
}

// Seed returns the shared dealer-stream seed this endpoint was built from.
// Fixed weight masks are pinned to it: an opened F = W−b is only valid
// against the dealer stream whose seed minted b.
func (d *Dealer) Seed() uint64 { return d.s.maskSeed }

// half returns this party's halves of t, running the product only for
// party 1.
func (d *Dealer) half(t Deal) (a, b, z []uint64) {
	if d.party == 0 {
		return t.A0, t.B0, t.Z0
	}
	return t.A1, t.B1, t.Z1()
}
