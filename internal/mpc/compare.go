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
	// fanIn is the children per tree node: NumChunks = fanIn², so one
	// level of fanIn-child nodes and a root cover every digit.
	fanIn = 4
)

// The comparison's tables (see ownedFn). A digit pair (u, t) gives
// (gt, eq) = ([u > t], [u = t]); the top digit holds only bits 60–62 of
// the low 63, so it has its own 8-value table. A tree node's index is a
// party's XOR share of four children's (g, e) bits — child c's g at bit
// 2c, its e at bit 2c+1, child 3 the most significant — and it gives
//
//	gt = g₃ ⊕ e₃g₂ ⊕ e₃e₂g₁ ⊕ e₃e₂e₁g₀,   eq = e₃e₂e₁e₀,
//
// the children's lexicographic (gt, eq), because a child's g and e are
// never both set.
var (
	leafFn = factorOwned(radix,
		func(u, t int) bool { return u > t },
		func(u, t int) bool { return u == t })
	topFn = factorOwned(1<<(63-ChunkBits*(NumChunks-1)),
		func(u, t int) bool { return u > t },
		func(u, t int) bool { return u == t })
	nodeFn = factorOwned(1<<(2*fanIn),
		func(x, y int) bool { return nodeGt(x^y) == 1 },
		func(x, y int) bool { return (x^y)&0xaa == 0xaa })
)

// nodeGt is a tree node's gt on the plain index v.
func nodeGt(v int) int {
	gt, above := 0, 1
	for c := fanIn - 1; c >= 0; c-- {
		gt ^= above & (v >> (2 * c))
		above &= v >> (2*c + 1)
	}
	return gt & 1
}

// ownedSlot is one field of an owned round: the first one or two outputs
// of fn, width product bits.
type ownedSlot struct {
	fn *ownedFn
	// width is the field's product bits, k0 the first output's; a second
	// output's are the width − k0 above them.
	width, k0 int
	// outs masks the local bits of the outputs the slot takes.
	outs uint8
}

func slot(fn *ownedFn, outs int) ownedSlot {
	return ownedSlot{fn, fn.width(outs), fn.k[0], 1<<outs - 1}
}

// The slots of the comparison's three rounds, per element. Only gt is read
// from digit 0 and from the lowest tree node — the combines use every
// child's g but no eq of the least significant child — so their eq
// products are never sent.
var (
	leafSlots  [NumChunks]ownedSlot
	levelSlots = []ownedSlot{slot(nodeFn, 1), slot(nodeFn, 2), slot(nodeFn, 2), slot(nodeFn, 2)}
	rootSlots  = []ownedSlot{slot(nodeFn, 1)}
)

func init() {
	leafSlots[0] = slot(leafFn, 1)
	for c := 1; c < NumChunks-1; c++ {
		leafSlots[c] = slot(leafFn, 2)
	}
	leafSlots[NumChunks-1] = slot(topFn, 2)
}

// ownedRound evaluates slots in one bitAnd. idx holds, slot by slot, this
// party's index into the slot's tables for every element (n = len(idx) /
// len(slots) per slot); ownedRound overwrites each with its XOR share of
// the slot's outputs, bit o for output o. Each party sends its looked-up
// operands, one width-bit field per slot and element in idx's order,
// masked with its own half of the triples; its share of an output is the
// parity of that output's product bits XOR its local bit.
//
// The fields are contiguous, so packing and unpacking move whole words.
// A slot's fields go two elements at a time (2·width ≤ 64 bits), which
// halves the bit cursor's serial updates; an odd last element goes alone.
func (p *Party) ownedRound(idx []uint8, slots []ownedSlot) error {
	n := len(idx) / len(slots)
	per := 0
	for _, s := range slots {
		per += s.width
	}
	// Every word of own is written once, so the scratch needs no clearing.
	own := BitShare{N: n * per, W: grow(&p.scr.own, BitWords(n*per))}
	w, acc, fill := 0, uint64(0), 0
	for s, sl := range slots {
		tab, width, mask := sl.fn.half[p.ID], sl.width, uint64(1)<<sl.width-1
		r := idx[s*n : (s+1)*n]
		j := 0
		for ; j+1 < len(r); j += 2 {
			e0, e1 := tab[r[j]], tab[r[j+1]]
			v := uint64(e0.op)&mask | (uint64(e1.op)&mask)<<width
			acc |= v << fill
			r[j], r[j+1] = e0.loc&sl.outs, e1.loc&sl.outs
			if fill += 2 * width; fill >= 64 {
				own.W[w], w = acc, w+1
				fill -= 64
				acc = v >> (2*width - fill)
			}
		}
		if j < len(r) {
			e := tab[r[j]]
			v := uint64(e.op) & mask
			acc |= v << fill
			r[j] = e.loc & sl.outs
			if fill += width; fill >= 64 {
				own.W[w], w = acc, w+1
				fill -= 64
				acc = v >> (width - fill)
			}
		}
	}
	if fill > 0 {
		own.W[w] = acc
	}
	prod, err := p.bitAnd(own)
	if err != nil {
		return err
	}
	// buf holds avail unread bits of the product, the next word at w.
	w, buf, avail := 0, uint64(0), 0
	for s, sl := range slots {
		width, mask, k0 := sl.width, uint64(1)<<sl.width-1, sl.k0
		r := idx[s*n : (s+1)*n]
		j := 0
		for ; j+1 < len(r); j += 2 {
			f := buf
			if avail < 2*width {
				next := prod.W[w]
				w++
				f |= next << avail
				buf = next >> (2*width - avail)
				avail += 64 - 2*width
			} else {
				buf >>= 2 * width
				avail -= 2 * width
			}
			r[j] ^= fieldShares(f&mask, k0)
			r[j+1] ^= fieldShares(f>>width&mask, k0)
		}
		if j < len(r) {
			f := buf
			if avail < width {
				next := prod.W[w]
				w++
				f |= next << avail
				buf = next >> (width - avail)
				avail += 64 - width
			} else {
				buf >>= width
				avail -= width
			}
			r[j] ^= fieldShares(f&mask, k0)
		}
	}
	return nil
}

// fieldShares returns a field's output shares before the local bits: the
// parity of its k0 low product bits in bit 0 and of the rest in bit 1.
func fieldShares(f uint64, k0 int) uint8 {
	return uint8(bits.OnesCount64(f&(1<<k0-1))&1 | bits.OnesCount64(f>>k0)&1<<1)
}

// nodeIndex packs the (g, e) shares of every fanIn consecutive slots —
// child c's at bits 2c and 2c+1, the least significant child first — into
// one node index per element: r holds len(r)/n slots of n elements each,
// the result len(r)/(fanIn·n).
func nodeIndex(r []uint8, n int) []uint8 {
	out := make([]uint8, len(r)/fanIn)
	for g := 0; g*n < len(out); g++ {
		node, ch := out[g*n:(g+1)*n], r[g*fanIn*n:(g+1)*fanIn*n]
		c0, c1, c2, c3 := ch[:len(node)], ch[n:2*n], ch[2*n:3*n], ch[3*n:4*n]
		for j := range node {
			node[j] = c0[j] | c1[j]<<2 | c2[j]<<4 | c3[j]<<6
		}
	}
	return out
}

// DReLU computes XOR shares of the derivative of ReLU: the bit (x >= 0)
// for every element of x, where x is interpreted in two's complement.
//
// Reduction: msb(x0 + x1) = msb(x0) ⊕ msb(x1) ⊕ carry, where carry is
// the carry out of the low-63-bit addition, i.e. low63(x0) + low63(x1) >=
// 2^63. That inequality is a millionaires' comparison between u =
// low63(x0), held by party 0, and t = 2^63 − 1 − low63(x1), held by party
// 1: carry = (u > t).
//
// Every round is an owned round (ownedRound): each party looks up its own
// index in a table, one bitAnd on owner-split triples ANDs the two
// parties' operands, and a parity plus a local bit is each party's share.
// The tables factor a function T(x, y) of the two indices as
// α(x) ⊕ β(y) ⊕ ⊕ₖ Aₖ(x)∧Bₖ(y) over GF(2) (factorOwned), so a k-product
// function costs k owned triples:
//
//   - Leaf (one exchange): the index is the party's digit; each digit's
//     (gt, eq) takes 15 + 14 products, the 3-bit top digit's 7 + 6 and
//     digit 0's gt alone 15 — 434 per element.
//   - Level (one exchange): the index is the party's share of four digits'
//     (gt, eq); each of the four nodes takes 14 + 14, the lowest gt alone
//     14 — 98 per element.
//   - Root (one exchange): the four nodes' gt, 14 products, is the carry.
//
// That is 3 exchanges and 546 owned AND triples per element, each party
// sending 68.25 bytes of them: over 16 digits a fan-in-4 tree has depth 2
// where a binary one has depth 4, and a node's 28 products still cost one
// exchange.
func (p *Party) DReLU(x Share) (BitShare, error) {
	n := x.Len()
	if n == 0 {
		return BitShare{}, nil
	}
	// Slot c's index is the party's digit c: of u = low63(x0), or of t,
	// whose low 63 bits are low63(x1)'s complement.
	flip := uint64(0)
	if p.ID == 1 {
		flip = 1<<63 - 1
	}
	r := make([]uint8, n*NumChunks)
	for c := 0; c < NumChunks; c++ {
		d := r[c*n : (c+1)*n]
		for j, xv := range x.V[:len(d)] {
			d[j] = uint8((xv^flip)&^(1<<63)>>(ChunkBits*c)) & (radix - 1)
		}
	}
	if err := p.ownedRound(r, leafSlots[:]); err != nil {
		return BitShare{}, fmt.Errorf("mpc: drelu leaf: %w", err)
	}
	r = nodeIndex(r, n)
	if err := p.ownedRound(r, levelSlots); err != nil {
		return BitShare{}, fmt.Errorf("mpc: drelu level: %w", err)
	}
	r = nodeIndex(r, n)
	if err := p.ownedRound(r, rootSlots); err != nil {
		return BitShare{}, fmt.Errorf("mpc: drelu root: %w", err)
	}

	// Assemble: neg = msb(own share) ⊕ carry; drelu = ¬neg, with the
	// negation folded into party 0's share.
	out := NewBitShare(n)
	for j, xv := range x.V {
		bit := xv>>63 ^ uint64(r[j]&1)
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
