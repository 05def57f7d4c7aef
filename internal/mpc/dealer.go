package mpc

import (
	"fmt"

	"pasnet/internal/rng"
)

// Dealer is the trusted third party of the offline phase (paper Sec. II-B:
// "an extra Beaver triple should be generated"). It is implemented as a
// deterministic generator: both parties construct a Dealer from the same
// seed and consume correlations in the same program order, so each party
// can locally derive its own half of every correlation without any online
// dealer traffic — the standard common-seed trusted-dealer simulation used
// by CrypTen-style systems.
//
// A Dealer instance belongs to one party and is not safe for concurrent
// use.
type Dealer struct {
	r     *rng.RNG
	party int
	seed  uint64
	// masks caches session-pinned fixed weight masks by slot id (see
	// fixedmask.go). They are derived out-of-band from the main stream r,
	// so taking one never perturbs the replayable draw order.
	masks map[int]*fixedMask
	// Issued counts correlations handed out, for diagnostics.
	Issued int
}

// NewDealer returns party's endpoint of a dealer stream. Both parties must
// use the same seed and distinct party IDs (0 and 1).
func NewDealer(seed uint64, party int) *Dealer {
	if party != 0 && party != 1 {
		panic(fmt.Sprintf("mpc: party must be 0 or 1, got %d", party))
	}
	return &Dealer{r: rng.New(seed), party: party, seed: seed}
}

// Seed returns the shared dealer-stream seed this endpoint was built from.
// Fixed weight masks are pinned to it: an opened F = W−b is only valid
// against the dealer stream whose seed minted b.
func (d *Dealer) Seed() uint64 { return d.seed }

// pick returns this party's half of an additive sharing of plain.
func (d *Dealer) pick(plain []uint64) []uint64 {
	s0, s1 := SplitSecret(plain, d.r)
	if d.party == 0 {
		return s0
	}
	return s1
}

// pickBits returns this party's half of an XOR sharing of plain: party 0
// holds a fresh mask, party 1 plain ⊕ mask (folded into the mask in place).
func (d *Dealer) pickBits(plain BitShare) BitShare {
	mask := DrawBits(d.r, plain.N)
	if d.party == 1 {
		for i, w := range plain.W {
			mask.W[i] ^= w
		}
	}
	return mask
}

// HadamardTriple returns this party's shares (a, b, z) of a Beaver triple
// with z = a ⊙ b (elementwise ring product), each of length n.
func (d *Dealer) HadamardTriple(n int) (a, b, z []uint64) {
	d.Issued++
	plainA := make([]uint64, n)
	plainB := make([]uint64, n)
	plainZ := make([]uint64, n)
	d.r.FillUint64(plainA)
	d.r.FillUint64(plainB)
	ringMul(plainZ, plainA, plainB)
	return d.pick(plainA), d.pick(plainB), d.pick(plainZ)
}

// SquarePair returns this party's shares (a, z) with z = a ⊙ a, used by
// the 2PC square protocol (paper Eq. 3).
func (d *Dealer) SquarePair(n int) (a, z []uint64) {
	d.Issued++
	plainA := make([]uint64, n)
	plainZ := make([]uint64, n)
	d.r.FillUint64(plainA)
	ringMul(plainZ, plainA, plainA)
	return d.pick(plainA), d.pick(plainZ)
}

// MatMulTriple returns shares of (A, B, Z=A@B) for A (m×k) and B (k×n).
func (d *Dealer) MatMulTriple(m, k, n int) (a, b, z []uint64) {
	d.Issued++
	plainA := make([]uint64, m*k)
	plainB := make([]uint64, k*n)
	plainZ := make([]uint64, m*n)
	d.r.FillUint64(plainA)
	d.r.FillUint64(plainB)
	ringMatMul(plainZ, plainA, plainB, m, k, n)
	return d.pick(plainA), d.pick(plainB), d.pick(plainZ)
}

// ConvTriple returns shares of (A, B, Z=conv(A,B)) for the given geometry.
func (d *Dealer) ConvTriple(dims ConvDims) (a, b, z []uint64) {
	d.Issued++
	plainA := make([]uint64, dims.InLen())
	plainB := make([]uint64, dims.KLen())
	plainZ := make([]uint64, dims.OutLen())
	d.r.FillUint64(plainA)
	d.r.FillUint64(plainB)
	ringConv2D(plainZ, plainA, plainB, dims)
	return d.pick(plainA), d.pick(plainB), d.pick(plainZ)
}

// BitTriples returns XOR shares of n AND triples: c = a AND b bitwise
// (GMW-style AND gates, the whole of the comparison protocol). The stream
// is consumed a word at a time — five draws per 64 triples: plain a, plain
// b, then the three share masks.
func (d *Dealer) BitTriples(n int) (a, b, c BitShare) {
	d.Issued++
	plainA := DrawBits(d.r, n)
	plainB := DrawBits(d.r, n)
	plainC := NewBitShare(n)
	for i := range plainC.W {
		plainC.W[i] = plainA.W[i] & plainB.W[i]
	}
	return d.pickBits(plainA), d.pickBits(plainB), d.pickBits(plainC)
}
