package mpc

import (
	"math"
	"sync"
	"testing"

	"pasnet/internal/rng"
)

// Suite for the narrow comparison layout: DReLU over the low NarrowBits
// bits is exact for −2^21 ≤ x < 2^21 ulp on any 64-bit share split, and
// wrong past it in the documented way.

// narrowPair returns a 64-bit share split of the in-range x whose
// millionaires' inputs are u (party 0's low 21 bits) and t (the complement
// of party 1's); neg picks x's sign. Party 0's upper bits come from r.
func narrowPair(r *rng.RNG, u, t uint64, neg bool) [2]uint64 {
	const low = 1<<NarrowBits - 1
	x := (u + low - t) & low
	if neg {
		x |= ^uint64(low)
	}
	x0 := u | r.Uint64()&^low
	return [2]uint64{x0, x - x0}
}

// openNarrowDReLU runs the narrow layout on explicit share pairs (pairs[i][id]
// is party id's share of element i) and returns the opened bits, after
// checking both parties opened the same ones from canonically shaped
// shares.
func openNarrowDReLU(t *testing.T, seed uint64, pairs [][2]uint64) BitShare {
	t.Helper()
	var mu sync.Mutex
	var opened [2]BitShare
	runBoth(t, seed, func(p *Party) error {
		x := NewShare(len(pairs))
		for i, pr := range pairs {
			x.V[i] = pr[p.ID]
		}
		bits, err := p.drelu(x, &narrowCmp)
		if err != nil {
			return err
		}
		if bits.N != len(pairs) || len(bits.W) != BitWords(len(pairs)) || !tailClear(bits) {
			t.Errorf("party %d: narrow drelu share has N=%d, %d words, tail clear=%v for %d elements",
				p.ID, bits.N, len(bits.W), tailClear(bits), len(pairs))
		}
		plain, err := openBits(p, bits)
		mu.Lock()
		opened[p.ID] = plain
		mu.Unlock()
		return err
	})
	for i := range opened[0].W {
		if opened[0].W[i] != opened[1].W[i] {
			t.Fatalf("parties opened different narrow drelu words at %d", i)
		}
	}
	return opened[0]
}

// checkNarrowDReLU checks every opened bit against the sign of the
// reconstructed value.
func checkNarrowDReLU(t *testing.T, seed uint64, pairs [][2]uint64) {
	t.Helper()
	plain := openNarrowDReLU(t, seed, pairs)
	for i, pr := range pairs {
		want := uint64(0)
		if int64(pr[0]+pr[1]) >= 0 {
			want = 1
		}
		if got := plain.Bit(i); got != want {
			t.Fatalf("narrow drelu(%#x + %#x) = %d, want %d", pr[0], pr[1], got, want)
		}
	}
}

// TestNarrowDReLUCorrectness is TestDReLUCorrectness's twin on the narrow
// layout, over every input the layout covers.
func TestNarrowDReLUCorrectness(t *testing.T) {
	const edge = 1 << NarrowBits
	t.Run("edges", func(t *testing.T) {
		// ±(2^21 − 1), −2^21, 0 and −1, each split trivially both ways and
		// against random masks.
		r := rng.New(224)
		var pairs [][2]uint64
		for _, v := range []int64{edge - 1, -(edge - 1), -edge, 0, -1} {
			pairs = append(pairs, [2]uint64{uint64(v), 0}, [2]uint64{0, uint64(v)})
			for i := 0; i < 8; i++ {
				m := r.Uint64()
				pairs = append(pairs, [2]uint64{m, uint64(v) - m})
			}
		}
		checkNarrowDReLU(t, 190, pairs)
	})

	t.Run("random-splits", func(t *testing.T) {
		// Uniform values in range under uniform 64-bit masks, at counts on,
		// off and around a word boundary and the relu_k1_lan program's 2176.
		r := rng.New(225)
		for _, n := range []int{1, 63, 64, 65, 2176} {
			pairs := make([][2]uint64, n)
			for i := range pairs {
				v := int64(r.Uint64()%(2*edge)) - edge
				m := r.Uint64()
				pairs[i] = [2]uint64{m, uint64(v) - m}
			}
			checkNarrowDReLU(t, uint64(191+n), pairs)
		}
	})

	t.Run("decided-at-each-digit", func(t *testing.T) {
		// u and t agree on every digit except digit k, which decides the
		// carry either way; u = t runs the eq chain through all five
		// digits. Each pattern runs under both signs.
		r := rng.New(226)
		var pairs [][2]uint64
		off := 0
		for _, sl := range narrowCmp.leaf {
			w := sl.indexBits()
			for rep := 0; rep < 4; rep++ {
				tt := r.Uint64() & (edge - 1)
				// Put digit k strictly inside its range so ±1 in it touches
				// no other digit.
				tt = tt&^((1<<w-1)<<off) | (1+r.Uint64()%uint64(1<<w-2))<<off
				for _, neg := range []bool{false, true} {
					pairs = append(pairs,
						narrowPair(r, tt+1<<off, tt, neg),
						narrowPair(r, tt-1<<off, tt, neg),
						narrowPair(r, tt, tt, neg))
				}
			}
			off += w
		}
		if off != NarrowBits {
			t.Fatalf("narrow digits cover %d bits, want %d", off, NarrowBits)
		}
		checkNarrowDReLU(t, 192, pairs)
	})
}

// TestNarrowDReLUPastBound pins the narrow layout's precondition instead
// of hiding it: an input past the range is compared on its low 22 bits,
// so x = 2^21 ulp (128.0 at 14 fractional bits) reads as negative and
// x = −2^21 − 1 as non-negative. ReLUBounded runs the layout only where a
// recorded bound leaves NarrowMargin headroom below that.
func TestNarrowDReLUPastBound(t *testing.T) {
	const edge = 1 << NarrowBits
	r := rng.New(227)
	var pairs [][2]uint64
	var wrong []uint64
	for _, c := range []struct {
		v    int64
		read uint64 // the documented wrong bit: the sign of bit 21
	}{{edge, 0}, {-edge - 1, 1}} {
		for i := 0; i < 8; i++ {
			m := r.Uint64()
			pairs = append(pairs, [2]uint64{m, uint64(c.v) - m})
			wrong = append(wrong, c.read)
		}
	}
	plain := openNarrowDReLU(t, 193, pairs)
	for i, pr := range pairs {
		if got := plain.Bit(i); got != wrong[i] {
			t.Fatalf("narrow drelu(%d) = %d, want the documented %d", int64(pr[0]+pr[1]), got, wrong[i])
		}
	}
	if got := testCodec.Decode(edge); got != 128 {
		t.Fatalf("2^21 ulp decodes to %v, want 128.0", got)
	}
	// The gate keeps bounds off that edge by NarrowMargin.
	for _, c := range []struct {
		bound  float64
		narrow bool
	}{{0, false}, {math.NaN(), false}, {-1, false}, {1e-9, true}, {31.99, true}, {32, false}, {math.Inf(1), false}} {
		if got := ReLUHeadroom(testCodec, c.bound) > NarrowMargin; got != c.narrow {
			t.Errorf("bound %v: narrow %v, want %v (headroom %v)", c.bound, got, c.narrow, ReLUHeadroom(testCodec, c.bound))
		}
	}
}
