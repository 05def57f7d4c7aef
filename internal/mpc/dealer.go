package mpc

import (
	"fmt"

	"pasnet/internal/kernel"
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
// words NewStream draws off its RNG. Every draw takes party 0's halves off
// party 0's sub-stream and party 1's off party 1's, in a fixed per-kind
// order. The symmetric kinds (square pairs, matmul and conv triples) draw
// party 0's a, b and z halves, then party 1's a and b, and define the plain
// operands as a = a0 + a1 and b = b0 + b1. The owner-split kinds deal each
// operand whole to the one party that masks with it: party 1 draws all of
// a, party 0 all of b (bit and selector triples, where each party masks
// only its own operand — see bitAnd and selectBits) or none of it (the
// FixedB kinds, whose b is the pinned weight mask — see fixedmask.go), and
// party 0 draws its z half. Party 1's z half, product − z0 (⊕ z0 for bit
// triples), is then the only half that is not a sub-stream's output: it
// needs the correlation's product (a ring convolution, matrix multiply,
// bit×ring product or AND), so it is left to Deal.Z1 — a party-0 consumer
// never pays for it, and a store generator can run it off the sequential
// stream, in parallel. Everything else is regenerated from one sub-stream seed by a
// half stream (NewHalfStream), which is what lets a store file hold a seed
// where it would hold masks.
//
// The FixedB draws multiply against a session-pinned weight mask b that
// never touches the stream: b is derived out-of-band from maskSeed and the
// slot (see fixedmask.go) and cached here, pinned to the length it was
// first derived at. A shared-mask FixedB draw (MatMulFixedBShared,
// ConvFixedBShared) draws no a at all: it reuses the a of the FixedB deal
// right before it, so two linear ops on one input are masked once, and
// only z₀ comes off the stream. A conv FixedB draw's product runs against
// b packed once per slot (a kernel.ConvPlan kept beside the mask), packed
// by the draw itself: the products that run later, on other goroutines
// (BuildPair's workers), only read it.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	r        [2]*rng.RNG // per-party sub-streams; a half stream has one
	seeds    [2]uint64
	maskSeed uint64
	masks    map[int][]uint64 // fixed weight masks by slot
	// plans holds each slot's mask packed for the conv geometry it last
	// masked (see withConv).
	plans map[int]*kernel.ConvPlan[uint64]
	// lastA and lastLen are the activation mask and its length of the
	// latest deal when that deal was a FixedB one (lastA is nil where the
	// stream holds no a: party 0's half stream), and lastLen is 0 after
	// any other deal. A shared-mask deal takes its a from them.
	lastA   []uint64
	lastLen int
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
// bit-triple halves are XOR, packed 64 to a word. For the owner-split kinds
// A0 and B1 are nil, A1 is the whole a and B0 the whole b; B0 and B1 are
// both nil for the kinds whose b is not dealt per correlation (square pairs
// and the FixedB kinds). A half stream's deal carries only its party's
// halves.
type Deal struct {
	A0, B0, Z0 []uint64 // party 0's halves
	A1, B1     []uint64 // party 1's a and b halves
	b          []uint64 // the fixed mask of the FixedB kinds
	product    func(z, a, b []uint64)
	xor        bool // bit triple: halves are XOR, not additive
	// sel marks the selector triple: a and b are each n packed bits, tail
	// clear, then n ring words.
	sel bool
	// ownA marks the owner-split kinds (bit and selector triples, FixedB):
	// party 1 draws the whole of a and party 0 the whole of any dealt b,
	// so neither holds a half of the other's mask.
	ownA bool
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
	a, b := d.A1, d.B0
	if !d.ownA {
		a = d.join(d.A0, d.A1)
		if b != nil {
			b = d.join(d.B0, d.B1)
		}
	}
	if b == nil {
		b = d.b
	}
	z := make([]uint64, len(d.Z0))
	d.product(z, a, b)
	if !d.xor {
		ringSub(z, z, d.Z0)
		return z
	}
	for i := range z {
		z[i] ^= d.Z0[i]
	}
	return z
}

// deal fills in d's halves in the stream's draw order: party 0's a (unless
// party 1 owns it), b (when b is dealt here, lb > 0) and z, then party 1's
// a (unless la is 0: a shared-mask deal) and, unless party 0 owns it, b —
// each off its party's sub-stream. Each
// draw takes n words, or n packed bits for bit triples; a selector triple's
// a and b take n packed bits and then n words.
func (s *Stream) deal(d Deal, la, lb, lz int) Deal {
	draw := func(r *rng.RNG, n int) []uint64 {
		if d.xor {
			return DrawBits(r, n).W
		}
		w := make([]uint64, n)
		r.FillUint64(w)
		return w
	}
	operand := draw
	if d.sel {
		operand = func(r *rng.RNG, n int) []uint64 {
			w := draw(r, BitWords(n)+n)
			if tail := uint(n) & 63; tail != 0 {
				w[BitWords(n)-1] &= 1<<tail - 1
			}
			return w
		}
	}
	s.lastA, s.lastLen = nil, 0
	if r := s.r[0]; r != nil {
		if !d.ownA {
			d.A0 = operand(r, la)
		}
		if lb > 0 {
			d.B0 = operand(r, lb)
		}
		d.Z0 = draw(r, lz)
	}
	if r := s.r[1]; r != nil {
		if la > 0 {
			d.A1 = operand(r, la)
		}
		if lb > 0 && !d.ownA {
			d.B1 = operand(r, lb)
		}
	}
	return d
}

// Hadamard deals an owner-split selector triple for n selects, the
// correlation of selectBits: party 1 draws a = [c1 ; r1] and party 0
// b = [c0 ; r0] — n packed bits c, tail clear, then n ring words r — and
// z0, 2n words, with
//
//	z = z0 + z1 = [c1 ⊙ r0 ; c0 ⊙ r1],
//
// each party's bit times the other's ring word.
func (s *Stream) Hadamard(n int) Deal {
	return s.deal(Deal{product: selectorProduct, sel: true, ownA: true}, n, n, 2*n)
}

// selectorProduct is the selector triple's product (see Hadamard).
func selectorProduct(z, a, b []uint64) {
	n := len(z) / 2
	c1, r1 := a[:len(a)-n], a[len(a)-n:]
	c0, r0 := b[:len(b)-n], b[len(b)-n:]
	for i := range n {
		w, s := i>>6, uint(i)&63
		z[i] = -(c1[w] >> s & 1) & r0[i]
		z[n+i] = -(c0[w] >> s & 1) & r1[i]
	}
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
// mask; a is a fresh m×k, drawn wholly off party 1's sub-stream (A1), and
// party 0 draws only z0.
func (s *Stream) MatMulFixedB(mask, m, k, p int) (Deal, error) {
	d, err := s.fixedB(mask, k*p, m*k, m*p, false)
	return withMatMul(d, m, k, p), err
}

// ConvFixedB deals (a, z = conv(a, b)) against the fixed kernel mask b of
// slot mask, a being party 1's alone as in MatMulFixedB.
func (s *Stream) ConvFixedB(mask int, dims ConvDims) (Deal, error) {
	d, err := s.fixedB(mask, dims.KLen(), dims.InLen(), dims.OutLen(), false)
	return s.withConv(d, mask, dims), err
}

// MatMulFixedBShared deals z = a@b against the fixed mask b of slot mask
// for the a of the FixedB deal right before it, which must mask an input
// of m·k words: the second linear op on one activation, masked once. It
// draws only z0.
func (s *Stream) MatMulFixedBShared(mask, m, k, p int) (Deal, error) {
	d, err := s.fixedB(mask, k*p, m*k, m*p, true)
	return withMatMul(d, m, k, p), err
}

// ConvFixedBShared is the convolution analogue of MatMulFixedBShared.
func (s *Stream) ConvFixedBShared(mask int, dims ConvDims) (Deal, error) {
	d, err := s.fixedB(mask, dims.KLen(), dims.InLen(), dims.OutLen(), true)
	return s.withConv(d, mask, dims), err
}

// withMatMul gives a FixedB deal with a mask (a half stream's has none)
// its matrix-multiply product.
func withMatMul(d Deal, m, k, p int) Deal {
	if d.b != nil {
		d.product = matMulOp(m, k, p)
	}
	return d
}

// withConv gives a FixedB deal with a mask its convolution product, which
// runs slot mask's b packed once for the geometry: the slot's plan is
// packed here, in the draw, when the slot has none yet or its plan was
// packed for another geometry (a plan holds its b, so the mask's pinning
// carries over).
func (s *Stream) withConv(d Deal, mask int, dims ConvDims) Deal {
	if d.b == nil {
		return d
	}
	shape := dims.shape()
	shape.N = 0
	plan, ok := s.plans[mask]
	if !ok || plan.Shape() != shape {
		plan = kernel.NewConvPlan(d.b, shape)
		if s.plans == nil {
			s.plans = make(map[int]*kernel.ConvPlan[uint64])
		}
		s.plans[mask] = plan
	}
	n := dims.N
	d.product = func(z, a, _ []uint64) { plan.Run(z, a, n) }
	return d
}

// fixedB deals (a, z) against the fixed mask b of slot mask (lb words): a
// fresh la-word a off party 1's sub-stream or, shared, the previous deal's
// a, which must be a FixedB deal's of the same length. The caller attaches
// the product.
func (s *Stream) fixedB(mask, lb, la, lz int, shared bool) (Deal, error) {
	prevA, prevLen := s.lastA, s.lastLen
	if shared && prevLen == 0 {
		return Deal{}, fmt.Errorf("mpc: shared-mask deal for fixed mask slot %d has no FixedB deal right before it to share an activation mask with", mask)
	}
	if shared && prevLen != la {
		return Deal{}, fmt.Errorf("mpc: shared-mask deal for fixed mask slot %d masks a %d-word input, but the FixedB deal before it masked %d words", mask, la, prevLen)
	}
	b, err := s.fixedMask(mask, lb)
	if err != nil {
		return Deal{}, err
	}
	d := Deal{b: b, ownA: true}
	if !shared {
		d = s.deal(d, la, 0, lz)
	} else {
		d = s.deal(d, 0, 0, lz)
		d.A1 = prevA
	}
	s.lastA, s.lastLen = d.A1, la
	return d, nil
}

// Bits deals n owner-split AND triples (c = a AND b bitwise), the GMW AND
// gates the whole comparison protocol runs on: a off party 1's sub-stream,
// b and z0 off party 0's. Each of the three draws is one DrawBits, so the
// stream advances three words per 64 triples.
func (s *Stream) Bits(n int) Deal {
	and := func(z, a, b []uint64) {
		for i := range z {
			z[i] = a[i] & b[i]
		}
	}
	return s.deal(Deal{product: and, xor: true, ownA: true}, n, n, n)
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
