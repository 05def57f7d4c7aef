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
// Every draw consumes the stream in a fixed per-kind order — plain a, plain
// b, then party 0's halves of a, b and z — and returns both parties' a/b
// halves and party 0's z half. Party 1's z half needs the correlation's
// product (a ring convolution, matrix multiply or elementwise product), so
// it is left to Deal.Z1: a party-0 consumer never pays for it, and a store
// generator can run it off the sequential stream, in parallel.
//
// The FixedB draws multiply against a session-pinned weight mask b that
// never touches the stream: b is derived out-of-band from maskSeed and the
// slot (see fixedmask.go) and cached here, pinned to the length it was
// first derived at.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	r        *rng.RNG
	maskSeed uint64
	masks    map[int][]uint64 // fixed weight masks by slot
}

// NewStream deals from r. maskSeed is the serving pair's dealer seed, from
// which fixed weight masks are derived; it may differ from r's seed (a
// store provisioned off a per-geometry stream must still multiply against
// the masks the session's live dealer minted).
func NewStream(r *rng.RNG, maskSeed uint64) *Stream {
	return &Stream{r: r, maskSeed: maskSeed}
}

// Deal is one correlation drawn off a Stream. Ring halves are additive
// (party 1's is the plain value minus party 0's); bit-triple halves are
// XOR, packed 64 to a word. B0 and B1 are nil for the kinds whose b is not
// dealt per correlation (square pairs and the FixedB kinds).
type Deal struct {
	A0, B0, Z0 []uint64 // party 0's halves
	A1, B1     []uint64 // party 1's a and b halves
	// a, b are the plain operands whose product z is; b is the fixed mask
	// for the FixedB kinds and unused for square pairs.
	a, b    []uint64
	product func(z, a, b []uint64)
	xor     bool // bit triple: halves are XOR, not additive
}

// unmask sets dst to party 1's half of plain given party 0's half h0:
// plain − h0, or plain ⊕ h0 for bit triples.
func (d Deal) unmask(dst, plain, h0 []uint64) {
	if !d.xor {
		ringSub(dst, plain, h0)
		return
	}
	for i := range dst {
		dst[i] = plain[i] ^ h0[i]
	}
}

// Z1 computes party 1's z half from the plain product of the deal's
// operands.
func (d Deal) Z1() []uint64 {
	z := make([]uint64, len(d.Z0))
	d.product(z, d.a, d.b)
	d.unmask(z, z, d.Z0)
	return z
}

// deal fills in d's material in the stream's draw order: plain a, plain b
// (when b is dealt here, lb > 0), then party 0's halves of a, b and z.
// Each draw takes n words off the stream, or n packed bits for bit
// triples.
func (s *Stream) deal(d Deal, la, lb, lz int) Deal {
	draw := s.words
	if d.xor {
		draw = s.bits
	}
	d.a = draw(la)
	if lb > 0 {
		d.b = draw(lb)
	}
	d.A0, d.A1 = draw(la), make([]uint64, len(d.a))
	d.unmask(d.A1, d.a, d.A0)
	if lb > 0 {
		d.B0, d.B1 = draw(lb), make([]uint64, len(d.b))
		d.unmask(d.B1, d.b, d.B0)
	}
	d.Z0 = draw(lz)
	return d
}

func (s *Stream) words(n int) []uint64 {
	w := make([]uint64, n)
	s.r.FillUint64(w)
	return w
}

func (s *Stream) bits(n int) []uint64 { return DrawBits(s.r, n).W }

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
// DrawBits, so the stream advances a word per 64 triples per draw.
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
// systems. Party 0's halves are the stream's masks, so only party 1 runs
// the correlation products.
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
