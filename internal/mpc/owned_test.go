package mpc

import (
	"testing"

	"pasnet/internal/obs"
	"pasnet/internal/rng"
)

// Suite for the owned products: each party masks and sends only the
// operand it holds, so a product of one party-1-private and one
// party-0-private operand costs one half-size frame each way, and a
// product of two shared operands — an owned round of two products per
// bit — costs what two symmetric openings did. The select is the bit×ring
// owned product: each party sends its selector bits as bits and its ring
// operand as words, whether the bits and values are shared or private.

// andFn is a two-input AND of XOR-shared bits as an owned function: a
// party's index holds its share of one input in bit 0 and of the other in
// bit 1. (x0 ⊕ x1) ∧ (y0 ⊕ y1) has two cross terms, so k = 2.
var andFn = factorOwned(4, func(x, y int) bool { return x^y == 3 })

// ownedAnd returns XOR shares of x AND y bitwise for XOR-shared x and y in
// one owned round.
func ownedAnd(p *Party, x, y BitShare) (BitShare, error) {
	r := make([]uint8, x.N)
	for i := range r {
		r[i] = uint8(x.Bit(i) | y.Bit(i)<<1)
	}
	if err := ownedRound(p, r, r, []ownedSlot{slot(andFn, 1)}); err != nil {
		return BitShare{}, err
	}
	out := NewBitShare(x.N)
	for i, b := range r {
		out.W[i>>6] |= uint64(b) << (uint(i) & 63)
	}
	return out, nil
}

// wirePin runs op on both parties over an instrumented connection,
// checks that each party sent and received exactly one frame of words
// words, then runs the check op returned (whose own traffic is not
// counted).
func wirePin(t *testing.T, name string, seed uint64, words int, op func(p *Party) (check func() error, err error)) {
	t.Helper()
	runBoth(t, seed, func(p *Party) error {
		wire := obs.InstrumentConn(p.Conn, nil)
		p.Conn = wire
		check, err := op(p)
		if err != nil {
			return err
		}
		got := wire.Totals()
		want := obs.WireTotals{SentBytes: int64(8 * words), SentFrames: 1, RecvBytes: int64(8 * words), RecvFrames: 1}
		if got != want {
			t.Errorf("%s, party %d: moved %+v, want %+v", name, p.ID, got, want)
		}
		return check()
	})
}

// TestOwnedProductWirePin pins both owned products frame- and byte-exactly
// and checks what they compute: a private×private bitAnd of n bits sends
// one ⌈n/64⌉-word frame per party and its shared×shared form (an owned
// round of k = 2) twice that, in one frame — the bytes of a symmetric
// Beaver opening of both operands; a select of n elements sends one frame
// of ⌈n/64⌉ + n words per party whether its bits and values are private
// (party 1's bits, party 0's values) or shared.
func TestOwnedProductWirePin(t *testing.T) {
	const nb, nr = 640, 37
	r := rng.New(71)
	// x is party 1's operand and y party 0's; x1 and y1 are party 1's
	// halves when both are shared.
	bx, by, bx1, by1 := DrawBits(r, nb), DrawBits(r, nb), DrawBits(r, nb), DrawBits(r, nb)
	ry, ry1 := randWords(r, nr), randWords(r, nr)

	own := func(p *Party, x, y BitShare) BitShare {
		if p.ID == 1 {
			return x
		}
		return y
	}
	xorShare := func(p *Party, plain, half1 BitShare) BitShare {
		if p.ID == 1 {
			return half1
		}
		out := NewBitShare(plain.N)
		for i := range out.W {
			out.W[i] = plain.W[i] ^ half1.W[i]
		}
		return out
	}
	addShare := func(p *Party, plain, half1 []uint64) Share {
		out := Share{V: append([]uint64(nil), half1...), Shape: []int{len(plain)}}
		if p.ID == 0 {
			ringSub(out.V, plain, half1)
		}
		return out
	}
	// bitsCheck opens c and compares it with x ∧ y, ringCheck with bx ⊙ ry
	// on the first nr bits.
	bitsCheck := func(p *Party, name string, c BitShare) func() error {
		return func() error {
			plain, err := openBits(p, c)
			if err != nil {
				return err
			}
			for i := range plain.W {
				if want := bx.W[i] & by.W[i]; plain.W[i] != want {
					t.Errorf("%s, party %d: word %d = %#x, want %#x", name, p.ID, i, plain.W[i], want)
				}
			}
			return nil
		}
	}
	ringCheck := func(p *Party, name string, c []uint64) func() error {
		return func() error {
			plain, err := p.Reveal(Share{V: c, Shape: []int{len(c)}})
			if err != nil {
				return err
			}
			for i := range plain {
				if want := bx.Bit(i) * ry[i]; plain[i] != want {
					t.Errorf("%s, party %d: element %d = %#x, want %#x", name, p.ID, i, plain[i], want)
				}
			}
			return nil
		}
	}
	// sx is the selector bx cut to nr bits.
	sx := BitShare{N: nr, W: []uint64{bx.W[0] & (1<<nr - 1)}}
	sx1 := BitShare{N: nr, W: []uint64{bx1.W[0] & (1<<nr - 1)}}

	wirePin(t, "private bitAnd", 72, BitWords(nb), func(p *Party) (func() error, error) {
		c, err := p.bitAnd(own(p, bx, by))
		return bitsCheck(p, "private bitAnd", c), err
	})
	wirePin(t, "shared owned round", 73, 2*BitWords(nb), func(p *Party) (func() error, error) {
		c, err := ownedAnd(p, xorShare(p, bx, bx1), xorShare(p, by, by1))
		return bitsCheck(p, "shared owned round", c), err
	})
	wirePin(t, "private select", 74, BitWords(nr)+nr, func(p *Party) (func() error, error) {
		bits, vals := NewBitShare(nr), make([]uint64, nr)
		if p.ID == 1 {
			bits = sx
		} else {
			copy(vals, ry)
		}
		c, err := p.selectBits(bits, Share{V: vals, Shape: []int{nr}})
		return ringCheck(p, "private select", c.V), err
	})
	wirePin(t, "shared select", 75, BitWords(nr)+nr, func(p *Party) (func() error, error) {
		c, err := p.selectBits(xorShare(p, sx, sx1), addShare(p, ry, ry1))
		return ringCheck(p, "shared select", c.V), err
	})
}
