package mpc

import (
	"fmt"
	"math"
	"math/bits"

	"pasnet/internal/fixed"
)

// Comparison constants. The paper's Sec. III-C splits 32-bit values into
// U = 16 parts of 2 bits and resolves each part with a (1,4)-OT (Fig. 4;
// package ot keeps that flow as a reference). Our executable ring is 64
// bits wide (see fixed.Codec64), so the comparison runs over the same
// U = 16 digits at 4 bits each, and each digit is resolved with AND gates
// on dealer triples instead of a live OT: the trusted dealer the Beaver
// products already rely on makes the OT's group arithmetic and its three
// message hops unnecessary. The hardware model keeps the paper's costs.
//
// That is the wide layout, for any 64-bit input. A ReLU layer whose
// recorded input bound leaves headroom runs the narrow layout instead
// (see ReLUHeadroom and DReLU): five digits over the low NarrowBits = 21
// bits, above which bit 21 of the shares' sum is the sign.
//
// ReLU, max and argmax close the comparison with one select (selectBits),
// which sends each selector bit as one bit and its value as one masked
// word: 8.125 bytes per element each way. A ReLU moves 152.75 bytes per
// element over both directions on the wide layout and 60.5 on the narrow.
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

	// NarrowBits is the narrow layout's compared width: it reads bit
	// NarrowBits of the shares' sum as the sign, exact for
	// −2^NarrowBits ≤ x < 2^NarrowBits ulp.
	NarrowBits = narrowLowBits + (narrowFanIn-1)*ChunkBits
	// narrowLowBits is the width of the narrow layout's lowest digit, and
	// narrowFanIn its digit count — the root's fan-in. A sixth child would
	// take the root's index past what a 32-bit operand factors.
	narrowLowBits = 5
	narrowFanIn   = 5
)

// The comparison's tables (see ownedFn). A digit pair (u, t) gives
// (gt, eq) = ([u > t], [u = t]); the wide layout's top digit holds only
// bits 60–62 of the low 63, so it has its own 8-value table, and the
// narrow layout's 5-bit lowest digit its own 32-value gt table. A tree
// node's index is a party's XOR share of its children's (g, e) bits,
// child c's g at bit shift[c] and its e at shift[c]+1, the least
// significant child first; it gives, over fan-in children,
//
//	gt = g₃ ⊕ e₃g₂ ⊕ e₃e₂g₁ ⊕ e₃e₂e₁g₀,   eq = e₃e₂e₁e₀   (fan-in 4),
//
// the children's lexicographic (gt, eq), because a child's g and e are
// never both set. No node reads its lowest child's e, so the narrow root
// gives that child one index bit: 1 + 4·2 = 9 bits over five children.
var (
	leafFn = factorOwned(radix,
		func(u, t int) bool { return u > t },
		func(u, t int) bool { return u == t })
	topFn = factorOwned(1<<(63-ChunkBits*(NumChunks-1)),
		func(u, t int) bool { return u > t },
		func(u, t int) bool { return u == t })
	nodeFn = factorOwned(1<<(2*fanIn),
		func(x, y int) bool { return nodeGt(x^y, wideShift) == 1 },
		func(x, y int) bool { return (x^y)&0xaa == 0xaa })
	lowFn = factorOwned(1<<narrowLowBits,
		func(u, t int) bool { return u > t })
	rootFn = factorOwned(1<<(2*narrowFanIn-1),
		func(x, y int) bool { return nodeGt(x^y, narrowShift) == 1 })
)

// Child index shifts: the wide tree's nodes take four (g, e) pairs, the
// narrow root the lowest child's g and four pairs above it.
var (
	wideShift   = []int{0, 2, 4, 6}
	narrowShift = []int{0, 1, 3, 5, 7}
)

// nodeGt is a tree node's gt on the plain index v.
func nodeGt(v int, shift []int) int {
	gt, above := 0, 1
	for c := len(shift) - 1; c >= 0; c-- {
		gt ^= above & (v >> shift[c])
		above &= v >> (shift[c] + 1)
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

// indexBits is the width of the slot's index.
func (s ownedSlot) indexBits() int { return bits.TrailingZeros(uint(len(s.fn.half[0]))) }

// cmpLayout is one shape of the comparison, as data: the leaf's digits,
// least significant first, and the tree rounds that fold their (gt, eq)
// into the carry. The digit widths sum to the compared width.
type cmpLayout struct {
	leaf  []ownedSlot
	nodes []cmpNode
}

// cmpNode is one tree round: each node packs len(shift) consecutive slots
// of the round before into its index (see nodeIndex).
type cmpNode struct {
	shift []int
	slots []ownedSlot
}

// width returns the compared width.
func (l *cmpLayout) width() int {
	w := 0
	for _, s := range l.leaf {
		w += s.indexBits()
	}
	return w
}

// The two layouts, per element. Only gt is read from the lowest digit and
// from the lowest tree node — the combines use every child's g but no eq
// of the least significant child — so their eq products are never sent.
//
//   - wide: 16 digits over the low 63 bits, a fan-in-4 level and a root —
//     434 + 98 + 14 = 546 products over 3 exchanges;
//   - narrow: five digits over the low 21 (a 5-bit gt-only one, then four
//     4-bit ones) and a fan-in-5 gt-only root — 147 + 30 = 177 products
//     over 2 exchanges.
var wideCmp, narrowCmp cmpLayout

func init() {
	leaf := make([]ownedSlot, NumChunks)
	leaf[0] = slot(leafFn, 1)
	for c := 1; c < NumChunks-1; c++ {
		leaf[c] = slot(leafFn, 2)
	}
	leaf[NumChunks-1] = slot(topFn, 2)
	wideCmp = cmpLayout{leaf: leaf, nodes: []cmpNode{
		{wideShift, []ownedSlot{slot(nodeFn, 1), slot(nodeFn, 2), slot(nodeFn, 2), slot(nodeFn, 2)}},
		{wideShift, []ownedSlot{slot(nodeFn, 1)}},
	}}
	narrowCmp = cmpLayout{
		leaf:  []ownedSlot{slot(lowFn, 1), slot(leafFn, 2), slot(leafFn, 2), slot(leafFn, 2), slot(leafFn, 2)},
		nodes: []cmpNode{{narrowShift, []ownedSlot{slot(rootFn, 1)}}},
	}
}

// ownedRound evaluates slots in one bitAnd. idx holds, slot by slot, this
// party's index into the slot's tables for every element (n = len(idx) /
// len(slots) per slot); ownedRound writes to out, at the same positions,
// its XOR share of the slot's outputs, bit o for output o. out may be idx
// itself. Each party sends its looked-up operands, one width-bit field per
// slot and element in idx's order, masked with its own half of the
// triples; its share of an output is the parity of that output's product
// bits XOR its local bit.
//
// The fields are contiguous, so packing and unpacking move whole words.
// A slot's fields go two elements at a time (2·width ≤ 64 bits), which
// halves the bit cursor's serial updates; an odd last element goes alone.
func ownedRound[I uint8 | uint16](p *Party, idx []I, out []uint8, slots []ownedSlot) error {
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
		r, o := idx[s*n:(s+1)*n], out[s*n:(s+1)*n]
		j := 0
		for ; j+1 < len(r); j += 2 {
			e0, e1 := tab[r[j]], tab[r[j+1]]
			v := uint64(e0.op)&mask | (uint64(e1.op)&mask)<<width
			acc |= v << fill
			o[j], o[j+1] = e0.loc&sl.outs, e1.loc&sl.outs
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
			o[j] = e.loc & sl.outs
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
		r := out[s*n : (s+1)*n]
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

// nodeIndex packs the (g, e) shares of every len(shift) consecutive slots
// — child c's at bits shift[c] and shift[c]+1, the least significant
// child first — into one node index per element: r holds len(r)/n slots
// of n elements each, the result len(r)/(len(shift)·n).
func nodeIndex(r []uint8, n int, shift []int) []uint16 {
	fan := len(shift)
	out := make([]uint16, len(r)/fan)
	for g := 0; g*n < len(out); g++ {
		node, ch := out[g*n:(g+1)*n], r[g*fan*n:(g+1)*fan*n]
		for c, s := range shift {
			for j, v := range ch[c*n : (c+1)*n] {
				node[j] |= uint16(v) << s
			}
		}
	}
	return out
}

// ReLUHeadroom returns how many times a ReLU layer's recorded input bound
// — the largest |input| seen on the training set, in real units — fits in
// the narrow comparison's exact range, 2^NarrowBits ulp under codec c
// (128.0 at 14 fractional bits). It is 0 when no bound was recorded
// (bound ≤ 0 or NaN). A layer runs the narrow layout iff its headroom
// exceeds NarrowMargin.
func ReLUHeadroom(c fixed.Codec64, bound float64) float64 {
	if !(bound > 0) {
		return 0
	}
	return math.Ldexp(1, NarrowBits-int(c.FracBits)) / bound
}

// NarrowMargin is the headroom a ReLU layer's bound must exceed for the
// narrow comparison: two bits, twice the drift seen between training-set
// and served inputs.
const NarrowMargin = 4

// DReLU computes XOR shares of the derivative of ReLU: the bit (x >= 0)
// for every element of x, where x is interpreted in two's complement. It
// runs the wide layout, correct for every 64-bit value.
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
//
// The narrow layout (drelu's other table set) is the same reduction mod
// 2^22: reducing both shares is a ring homomorphism, so if |x| < 2^21 ulp
// bit 21 of the reduced sum is x's sign and the carry is u > t over the
// low 21 bits — no new error term. Its leaf takes 31 products for the
// 5-bit lowest digit's gt and 15 + 14 for each 4-bit one, 147 per
// element; its root, a fan-in-5 node on a 9-bit index, 30. That is 2
// exchanges and 177 triples per element, 22.125 bytes each way. An input
// past the range is compared wrongly and silently, as a wide input past
// 2^63 is; ReLUBounded runs it only where a recorded bound leaves
// NarrowMargin headroom.
func (p *Party) DReLU(x Share) (BitShare, error) { return p.drelu(x, &wideCmp) }

// drelu is DReLU on layout lay.
func (p *Party) drelu(x Share, lay *cmpLayout) (BitShare, error) {
	n := x.Len()
	if n == 0 {
		return BitShare{}, nil
	}
	// Slot c's index is the party's digit c: of u, party 0's low bits, or
	// of t, whose low bits are the complement of party 1's.
	top := lay.width()
	flip := uint64(0)
	if p.ID == 1 {
		flip = 1<<top - 1
	}
	r := make([]uint8, n*len(lay.leaf))
	off := 0
	for c, sl := range lay.leaf {
		d, w := r[c*n:(c+1)*n], sl.indexBits()
		for j, xv := range x.V[:len(d)] {
			d[j] = uint8((xv^flip)>>off) & (1<<w - 1)
		}
		off += w
	}
	if err := ownedRound(p, r, r, lay.leaf); err != nil {
		return BitShare{}, fmt.Errorf("mpc: drelu leaf: %w", err)
	}
	for i, nd := range lay.nodes {
		idx := nodeIndex(r, n, nd.shift)
		r = r[:len(idx)]
		if err := ownedRound(p, idx, r, nd.slots); err != nil {
			return BitShare{}, fmt.Errorf("mpc: drelu tree round %d: %w", i+1, err)
		}
	}

	// Assemble: neg = bit top of own share ⊕ carry; drelu = ¬neg, with the
	// negation folded into party 0's share.
	out := NewBitShare(n)
	for j, xv := range x.V {
		bit := xv>>top&1 ^ uint64(r[j]&1)
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
