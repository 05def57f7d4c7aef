package mpc

import (
	"fmt"
	"math/bits"
)

// Comparison constants. The paper's Sec. III-C splits 32-bit values into
// U = 16 parts of 2 bits and resolves each part with a (1,4)-OT (Fig. 4;
// package ot keeps that flow as a reference). Our executable ring is 64
// bits wide (see fixed.Codec64), so the comparison runs over the same
// U = 16 digits at 4 bits each, and each digit is resolved with AND gates
// on dealer triples instead of a live OT: the trusted dealer the Beaver
// products already rely on makes the OT's group arithmetic and its three
// message hops unnecessary. The hardware model keeps the paper's costs.
const (
	// ChunkBits is the width of one comparison digit.
	ChunkBits = 4
	// NumChunks is the number of digits per value.
	NumChunks = 16

	// radix is the number of values a digit takes.
	radix = 1 << ChunkBits
	// leafANDs is the AND count of one digit's leaf: radix−1 gates for gt
	// (no digit exceeds radix−1, so that gate is dropped) and radix for eq.
	leafANDs = 2*radix - 1
	// treeDepth is log2(NumChunks), the number of prefix-combine levels.
	treeDepth = 4
)

// DReLU computes XOR shares of the derivative of ReLU: the bit (x >= 0)
// for every element of x, where x is interpreted in two's complement.
//
// Reduction: msb(x0 + x1) = msb(x0) ⊕ msb(x1) ⊕ carry, where carry is
// the carry out of the low-63-bit addition, i.e. low63(x0) + low63(x1) >=
// 2^63. That inequality is a millionaires' comparison between u =
// low63(x0), held by party 0, and t = 2^63 − 1 − low63(x1), held by party
// 1: carry = (u > t). It runs in 1 + treeDepth bitAnd exchanges of packed
// bits, 31·16 + 30 = 526 AND triples per element:
//
// Leaf (one exchange). For digit values u_d and t_d, party 1 forms the
// one-hot e_g = [t_d = g] and party 0 the thermometer v_g = [u_d > g] and
// the one-hot w_g = [u_d = g]. Then gt_d = ⊕_g e_g∧v_g and eq_d =
// ⊕_g e_g∧w_g: every AND joins one party-0-private and one
// party-1-private bit — XOR-shared as (bit, 0) — so all digits of all
// elements resolve in a single bitAnd, and the XOR over g is local.
//
// Tree (treeDepth exchanges). A logarithmic prefix tree merges adjacent
// digit groups (hi more significant than lo):
//
//	gt' = gt_hi ⊕ (eq_hi ∧ gt_lo)
//	eq' = eq_hi ∧ eq_lo
//
// with both ANDs of a level batched into one exchange (paper Sec. II-C /
// III-C).
func (p *Party) DReLU(x Share) (BitShare, error) {
	n := x.Len()
	if n == 0 {
		return BitShare{}, nil
	}
	// One leafANDs-bit field per (element, digit): gt gates in the low
	// radix−1 bits, eq gates above them.
	own := NewBitShare(n * NumChunks * leafANDs)
	for j, xv := range x.V {
		low := xv &^ (1 << 63)
		if p.ID == 1 {
			low = (1<<63 - 1) - low
		}
		for c := 0; c < NumChunks; c++ {
			hot := uint64(1) << (low >> (ChunkBits * c) & (radix - 1))
			f := hot << (radix - 1) // w (party 0) or e (party 1) against eq
			if p.ID == 0 {
				f |= hot - 1 // v
			} else {
				f |= hot & (1<<(radix-1) - 1) // e, less the dropped gate
			}
			own.setField((j*NumChunks+c)*leafANDs, leafANDs, f)
		}
	}
	// Party 1's one-hots are the a operand, party 0's vectors the b
	// operand; the other party's share of each is zero.
	a, b := NewBitShare(own.N), own
	if p.ID == 1 {
		a, b = b, a
	}
	prod, err := p.bitAnd(a, b)
	if err != nil {
		return BitShare{}, fmt.Errorf("mpc: drelu leaf: %w", err)
	}
	// gt[j] and eq[j] hold element j's digit shares, one bit per digit.
	// Digit c sits at the bit-reversed position of c, which puts the more
	// significant half of every adjacent pair — at every tree level — in
	// the upper half of the word, so a level is one shift and one mask.
	gt := make([]uint16, n)
	eq := make([]uint16, n)
	for j := range gt {
		for c := 0; c < NumChunks; c++ {
			f := prod.field((j*NumChunks+c)*leafANDs, leafANDs)
			pos := bits.Reverse8(uint8(c)) >> (8 - treeDepth)
			gt[j] |= uint16(bits.OnesCount64(f&(1<<(radix-1)-1))&1) << pos
			eq[j] |= uint16(bits.OnesCount64(f>>(radix-1))&1) << pos
		}
	}
	for h := NumChunks / 2; h >= 1; h /= 2 {
		// Per element, 2h gates: eq_hi∧gt_lo in the low h bits, eq_hi∧eq_lo
		// in the high h bits.
		lo := uint64(1)<<h - 1
		a, b := NewBitShare(n*2*h), NewBitShare(n*2*h)
		for j := range gt {
			g, e := uint64(gt[j]), uint64(eq[j])
			a.setField(j*2*h, 2*h, e>>h|e>>h<<h)
			b.setField(j*2*h, 2*h, g&lo|(e&lo)<<h)
		}
		prod, err := p.bitAnd(a, b)
		if err != nil {
			return BitShare{}, fmt.Errorf("mpc: drelu combine: %w", err)
		}
		for j := range gt {
			f := prod.field(j*2*h, 2*h)
			gt[j] = gt[j]>>h ^ uint16(f&lo)
			eq[j] = uint16(f >> h)
		}
	}

	// Assemble: neg = msb(own share) ⊕ carry; drelu = ¬neg, with the
	// negation folded into party 0's share.
	out := NewBitShare(n)
	for j, xv := range x.V {
		bit := xv>>63 ^ uint64(gt[j])
		if p.ID == 0 {
			bit ^= 1
		}
		out.W[j>>6] |= bit << (uint(j) & 63)
	}
	return out, nil
}

// Compare computes XOR shares of (x >= y) elementwise.
func (p *Party) Compare(x, y Share) (BitShare, error) {
	return p.DReLU(p.Sub(x, y))
}
