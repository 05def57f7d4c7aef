package mpc

import (
	"math"
	"testing"
	"testing/quick"

	"pasnet/internal/rng"
)

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

// TestBeaverTripleProperty: every triple the dealer issues satisfies
// z = a∘b after reconstruction, for arbitrary sizes.
func TestBeaverTripleProperty(t *testing.T) {
	prop := func(seed uint64, sizeRaw uint8) bool {
		size := int(sizeRaw%64) + 1
		d0 := NewDealer(seed, 0)
		d1 := NewDealer(seed, 1)
		a0, b0, z0 := d0.HadamardTriple(size)
		a1, b1, z1 := d1.HadamardTriple(size)
		for i := 0; i < size; i++ {
			if z0[i]+z1[i] != (a0[i]+a1[i])*(b0[i]+b1[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
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

// TestMulTruncProperty: fixed-point secure multiplication stays within a
// small ULP bound of the real product across random operands.
func TestMulTruncProperty(t *testing.T) {
	iter := 0
	prop := func(rawA, rawB []int16) bool {
		iter++
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n == 0 {
			return true
		}
		if n > 16 {
			n = 16
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(rawA[i]) / 64
			ys[i] = float64(rawB[i]) / 64
		}
		ok := true
		err := RunProtocol(uint64(5000+iter), testCodec, func(p *Party) error {
			var encX, encY []uint64
			if p.ID == 0 {
				encX = p.EncodeTensor(xs)
				encY = p.EncodeTensor(ys)
			}
			x, err := p.ShareInput(0, encX, n)
			if err != nil {
				return err
			}
			y, err := p.ShareInput(0, encY, n)
			if err != nil {
				return err
			}
			z, err := p.MulHadamard(x, y)
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
					tol := (math.Abs(xs[i])+math.Abs(ys[i])+4)/testCodec.Scale() + 2/testCodec.Scale()
					if math.Abs(got[i]-xs[i]*ys[i]) > tol {
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
