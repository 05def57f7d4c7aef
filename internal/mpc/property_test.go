package mpc

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pasnet/internal/rng"
)

// SplitSecret additively shares a secret vector using randomness from r,
// returning the two halves.
func SplitSecret(secret []uint64, r *rng.RNG) (s0, s1 []uint64) {
	s0 = make([]uint64, len(secret))
	s1 = make([]uint64, len(secret))
	r.FillUint64(s0)
	for i := range secret {
		s1[i] = secret[i] - s0[i]
	}
	return s0, s1
}

// TestShareAlgebraProperties uses testing/quick over the dealer-side share
// algebra: splitting is perfectly hiding-agnostic to reconstruction, and
// the ring operations commute with sharing.
func TestShareAlgebraProperties(t *testing.T) {
	r := rng.New(101)
	split := func(secret []uint64) bool {
		s0, s1 := SplitSecret(secret, r)
		got := CombineShares(s0, s1)
		for i := range secret {
			if got[i] != secret[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(split, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Linearity: combine(a0+b0, a1+b1) == combine(a)+combine(b).
	linear := func(a, b []uint64) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		a0, a1 := SplitSecret(a, r)
		b0, b1 := SplitSecret(b, r)
		sum0 := make([]uint64, len(a))
		sum1 := make([]uint64, len(a))
		ringAdd(sum0, a0, b0)
		ringAdd(sum1, a1, b1)
		got := CombineShares(sum0, sum1)
		for i := range a {
			if got[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(linear, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBeaverTripleProperty: every selector triple the dealer issues is
// owner-split with clear bit tails and satisfies z = [c1 ⊙ r0 ; c0 ⊙ r1]
// after reconstruction, for arbitrary sizes.
func TestBeaverTripleProperty(t *testing.T) {
	prop := func(seed uint64, sizeRaw uint8) bool {
		return checkSelectorTriple(seed, int(sizeRaw%160)+1) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// checkSelectorTriple deals one selector triple for n selects from both
// parties' dealers on seed and checks its contract (see
// CorrelationSource.TakeHadamard): party 1 holds a = [c1 ; r1] alone and
// party 0 b = [c0 ; r0] alone, each ⌈n/64⌉ bit words with the bits past n
// clear and n ring words, and z0 + z1 = [c1 ⊙ r0 ; c0 ⊙ r1] on all 2n
// words.
func checkSelectorTriple(seed uint64, n int) error {
	a0, b0, z0, _ := NewDealer(seed, 0).TakeHadamard(n)
	a1, b1, z1, _ := NewDealer(seed, 1).TakeHadamard(n)
	nw := BitWords(n)
	if a0 != nil || b1 != nil {
		return fmt.Errorf("n=%d: party 0 got %d a words, party 1 %d b words; want none", n, len(a0), len(b1))
	}
	if len(a1) != nw+n || len(b0) != nw+n || len(z0) != 2*n || len(z1) != 2*n {
		return fmt.Errorf("n=%d: a %d, b %d, z %d/%d words; want %d, %d, %d", n, len(a1), len(b0), len(z0), len(z1), nw+n, nw+n, 2*n)
	}
	c1, c0 := BitShare{N: n, W: a1[:nw]}, BitShare{N: n, W: b0[:nw]}
	if !tailClear(c1) || !tailClear(c0) {
		return fmt.Errorf("n=%d: selector bits set past the last select", n)
	}
	r1, r0 := a1[nw:], b0[nw:]
	for i := range n {
		if z0[i]+z1[i] != c1.Bit(i)*r0[i] || z0[n+i]+z1[n+i] != c0.Bit(i)*r1[i] {
			return fmt.Errorf("n=%d: select %d: z does not match [c1·r0 ; c0·r1]", n, i)
		}
	}
	return nil
}

// TestDReLUProperty runs the full comparison protocol on random batches
// and checks every sign bit, including values adversarially close to zero.
func TestDReLUProperty(t *testing.T) {
	iter := 0
	prop := func(raw []int16) bool {
		iter++
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 8 // includes tiny near-zero magnitudes
		}
		ok := true
		err := RunProtocol(uint64(1000+iter), testCodec, func(p *Party) error {
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(0, enc, len(xs))
			if err != nil {
				return err
			}
			bits, err := p.DReLU(x)
			if err != nil {
				return err
			}
			plain, err := openBits(p, bits)
			if err != nil {
				return err
			}
			if p.ID == 0 {
				for i := range xs {
					want := uint64(0)
					if xs[i] >= 0 {
						want = 1
					}
					if plain.Bit(i) != want {
						ok = false
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// Any two ring elements are a valid sharing: arbitrary share pairs, at
	// whatever length quick picks (so packed levels end mid-word).
	rawPairs := func(x0, x1 []uint64) bool {
		iter++
		if len(x0) > len(x1) {
			x0 = x0[:len(x1)]
		}
		pairs := make([][2]uint64, len(x0))
		for i := range pairs {
			pairs[i] = [2]uint64{x0[i], x1[i]}
		}
		checkDReLU(t, uint64(1000+iter), pairs)
		return !t.Failed()
	}
	if err := quick.Check(rawPairs, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMulTruncProperty: the fixed-point secure product — a Beaver square,
// the elementwise product the served programs run — stays within a small
// ULP bound of the real square across random operands, so the truncation
// bound stays pinned.
func TestMulTruncProperty(t *testing.T) {
	iter := 0
	prop := func(raw []int16) bool {
		iter++
		n := min(len(raw), 16)
		if n == 0 {
			return true
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(raw[i]) / 64
		}
		ok := true
		err := RunProtocol(uint64(5000+iter), testCodec, func(p *Party) error {
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(0, enc, n)
			if err != nil {
				return err
			}
			z, err := p.Square(x)
			if err != nil {
				return err
			}
			vals, err := p.Reveal(z)
			if err != nil {
				return err
			}
			if p.ID == 0 {
				got := p.DecodeTensor(vals)
				for i := 0; i < n; i++ {
					tol := (2*math.Abs(xs[i])+4)/testCodec.Scale() + 2/testCodec.Scale()
					if math.Abs(got[i]-xs[i]*xs[i]) > tol {
						ok = false
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestShareUniformity is a sanity property on the hiding side of the
// simulator: each party's share of a constant secret should look uniform
// (mean of high bit ≈ 1/2 over many sharings).
func TestShareUniformity(t *testing.T) {
	r := rng.New(303)
	secret := []uint64{42}
	ones := 0
	const trials = 4096
	for i := 0; i < trials; i++ {
		s0, _ := SplitSecret(secret, r)
		ones += int(s0[0] >> 63)
	}
	frac := float64(ones) / trials
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("share MSB frequency %.3f, want ~0.5", frac)
	}
}
