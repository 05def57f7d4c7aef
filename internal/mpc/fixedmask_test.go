package mpc

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pasnet/internal/obs"
	"pasnet/internal/rng"
)

// Protocol-level suite for the fixed weight-mask correlations: the FixedW
// ops must match plaintext across flushes under one opened F = W−b, pay
// exactly the weight-side opening bytes less than the per-flush ops, and
// the lifetime guards must reject every way an F can outlive its value
// (new dealer generation, mutated share, wrong length, re-pinned slot).

// TestMatMulFixedWMatchesPlain runs several flushes of x@W with one opened
// F = W−b and checks each against plaintext, plus the exact per-op byte
// saving versus the per-flush MatMul: both send one opening frame, the
// fixed one smaller by exactly the weight payload.
func TestMatMulFixedWMatchesPlain(t *testing.T) {
	const m, k, n = 3, 5, 4
	r := rng.New(301)
	ws := make([]float64, k*n)
	for i := range ws {
		ws[i] = r.Norm() * 0.5
	}
	flushes := [][]float64{}
	for f := 0; f < 3; f++ {
		xs := make([]float64, m*k)
		for i := range xs {
			xs[i] = r.Norm()
		}
		flushes = append(flushes, xs)
	}
	runBoth(t, 302, func(p *Party) error {
		wire := obs.InstrumentConn(p.Conn, nil)
		p.Conn = wire
		var encW []uint64
		if p.ID == 0 {
			encW = p.EncodeTensor(ws)
		}
		w, err := p.ShareInput(0, encW, k, n)
		if err != nil {
			return err
		}
		fw, err := p.OpenFixedW(0, w)
		if err != nil {
			return err
		}
		for f, xs := range flushes {
			var encX []uint64
			if p.ID == 1 {
				encX = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(1, encX, m, k)
			if err != nil {
				return err
			}
			sent0 := wire.Totals().SentBytes
			plainY, err := p.MatMul(x, w)
			if err != nil {
				return err
			}
			sent1 := wire.Totals().SentBytes
			fixedY, err := p.MatMulFixedW(x, w, fw)
			if err != nil {
				return err
			}
			sent2 := wire.Totals().SentBytes
			// Same frame count, weight payload dropped: the fixed op is
			// exactly 8 bytes per weight element cheaper, every flush.
			saved := (sent1 - sent0) - (sent2 - sent1)
			if saved != int64(8*k*n) {
				t.Errorf("party %d flush %d: fixed matmul saved %d bytes, want %d", p.ID, f, saved, 8*k*n)
			}
			got, err := p.Reveal(fixedY)
			if err != nil {
				return err
			}
			ref, err := p.Reveal(plainY)
			if err != nil {
				return err
			}
			gotF := p.DecodeTensor(got)
			refF := p.DecodeTensor(ref)
			want := make([]float64, m*n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					s := 0.0
					for c := 0; c < k; c++ {
						s += flushes[f][i*k+c] * ws[c*n+j]
					}
					want[i*n+j] = s
				}
			}
			for i := range want {
				if math.Abs(gotF[i]-want[i]) > 0.02 {
					t.Errorf("party %d flush %d elem %d: fixed %v want %v", p.ID, f, i, gotF[i], want[i])
					return nil
				}
				// Truncation is share-value-dependent, so fixed vs per-flush
				// may differ in the last ULP but no more.
				if math.Abs(gotF[i]-refF[i]) > 0.001 {
					t.Errorf("party %d flush %d elem %d: fixed %v vs per-flush %v", p.ID, f, i, gotF[i], refF[i])
					return nil
				}
			}
		}
		return nil
	})
}

// TestConv2DFixedWMatchesPlain is the conv analogue: two flushes under one
// opened kernel F, each matching the plaintext reference convolution.
func TestConv2DFixedWMatchesPlain(t *testing.T) {
	r := rng.New(311)
	dims := ConvDims{N: 2, InC: 2, H: 5, W: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ws := make([]float64, dims.KLen())
	for i := range ws {
		ws[i] = r.Norm() * 0.5
	}
	flushes := [][]float64{}
	for f := 0; f < 2; f++ {
		xs := make([]float64, dims.InLen())
		for i := range xs {
			xs[i] = r.Norm()
		}
		flushes = append(flushes, xs)
	}
	runBoth(t, 312, func(p *Party) error {
		var encW []uint64
		if p.ID == 0 {
			encW = p.EncodeTensor(ws)
		}
		w, err := p.ShareInput(0, encW, dims.OutC, dims.InC, dims.KH, dims.KW)
		if err != nil {
			return err
		}
		fw, err := p.OpenFixedW(3, w)
		if err != nil {
			return err
		}
		for f, xs := range flushes {
			var encX []uint64
			if p.ID == 1 {
				encX = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(1, encX, dims.N, dims.InC, dims.H, dims.W)
			if err != nil {
				return err
			}
			y, err := p.Conv2DFixedW(x, w, fw, dims)
			if err != nil {
				return err
			}
			plain, err := p.Reveal(y)
			if err != nil {
				return err
			}
			got := p.DecodeTensor(plain)
			want := plainConvRef(xs, ws, dims)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 0.05 {
					t.Errorf("party %d flush %d conv elem %d: %v want %v", p.ID, f, i, got[i], want[i])
					return nil
				}
			}
		}
		return nil
	})
}

// TestFixedMaskDerivation pins the out-of-band derivation: the plain b is a
// deterministic function of (seed, slot, length), distinct across all
// three, and the parties' halves are a valid additive sharing of it.
func TestFixedMaskDerivation(t *testing.T) {
	const n = 16
	plain := FixedMaskPlain(9, 4, n)
	if got := FixedMaskPlain(9, 4, n); !wordsEqual(got, plain) {
		t.Fatal("fixed mask derivation is not deterministic")
	}
	if wordsEqual(FixedMaskPlain(10, 4, n), plain) {
		t.Fatal("different dealer seeds must mint different masks")
	}
	if wordsEqual(FixedMaskPlain(9, 5, n), plain) {
		t.Fatal("different slots must mint different masks")
	}
	p2, h0, h1 := fixedMaskMaterial(9, 4, n)
	if !wordsEqual(p2, plain) {
		t.Fatal("material plain diverges from FixedMaskPlain")
	}
	sum := make([]uint64, n)
	ringAdd(sum, h0, h1)
	if !wordsEqual(sum, plain) {
		t.Fatal("halves do not reconstruct the plain mask")
	}
	// Drawing a fixed mask must not perturb the dealer's replayable main
	// stream: two dealers, one touching a mask, issue identical triples.
	dA := NewDealer(21, 0)
	dB := NewDealer(21, 0)
	if _, err := dB.FixedMaskHalf(2, n); err != nil {
		t.Fatal(err)
	}
	a1, b1, z1 := dA.MatMulTriple(2, 3, 4)
	a2, b2, z2 := dB.MatMulTriple(2, 3, 4)
	if !wordsEqual(a1, a2) || !wordsEqual(b1, b2) || !wordsEqual(z1, z2) {
		t.Fatal("fixed mask derivation perturbed the main dealer stream")
	}
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFixedMaskSlotPinning: a slot is pinned to the length it first masked,
// and its id must stay in range — both fail loudly at the dealer.
func TestFixedMaskSlotPinning(t *testing.T) {
	d := NewDealer(31, 0)
	if _, err := d.FixedMaskHalf(7, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := d.FixedMaskHalf(7, 13); err == nil ||
		!strings.Contains(err.Error(), "session-constant tensor") {
		t.Fatalf("re-pinning a slot to a new length must fail, got: %v", err)
	}
	if _, _, err := d.MatMulFixedB(7, 2, 3, 5); err == nil {
		t.Fatal("slot pinned to length 12 must reject a 3x5 mask request")
	}
	if _, err := d.FixedMaskHalf(-1, 4); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("negative slot must fail, got: %v", err)
	}
	if _, err := d.FixedMaskHalf(MaxFixedMask+1, 4); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized slot must fail, got: %v", err)
	}
}

// TestFixedWeightLifetimeGuards pins the mask-lifetime satellite at the
// protocol layer: a FixedWeight must be rejected when the dealer
// generation changed (a revived pair inheriting gen N's F), when the
// weight share mutated under it, when the length disagrees, and when it
// was never opened at all.
func TestFixedWeightLifetimeGuards(t *testing.T) {
	const k, n = 4, 3
	ws := make([]float64, k*n)
	r := rng.New(321)
	for i := range ws {
		ws[i] = r.Norm()
	}
	// Open F under seed 322, keep each party's (share, F) pair.
	var mu sync.Mutex
	shares := map[int]Share{}
	opened := map[int]*FixedWeight{}
	runBoth(t, 322, func(p *Party) error {
		var encW []uint64
		if p.ID == 0 {
			encW = p.EncodeTensor(ws)
		}
		w, err := p.ShareInput(0, encW, k, n)
		if err != nil {
			return err
		}
		fw, err := p.OpenFixedW(0, w)
		if err != nil {
			return err
		}
		mu.Lock()
		shares[p.ID] = w
		opened[p.ID] = fw
		mu.Unlock()
		return nil
	})

	x := NewShare(2, k)
	t.Run("revived-generation", func(t *testing.T) {
		// A session at a new dealer seed (a revived generation) must refuse
		// the old F — its b came from the dead stream.
		runBoth(t, 323, func(p *Party) error {
			_, err := p.MatMulFixedW(x, shares[p.ID], opened[p.ID])
			if err == nil || !strings.Contains(err.Error(), "revived generation must re-open") {
				t.Errorf("party %d: stale-generation F must be rejected, got: %v", p.ID, err)
			}
			return nil
		})
	})
	t.Run("mutated-share", func(t *testing.T) {
		runBoth(t, 322, func(p *Party) error {
			w := shares[p.ID]
			mutated := NewShare(w.Shape...)
			copy(mutated.V, w.V)
			mutated.V[0]++
			_, err := p.MatMulFixedW(x, mutated, opened[p.ID])
			if err == nil || !strings.Contains(err.Error(), "changed since W−b was opened") {
				t.Errorf("party %d: mutated share under a fixed mask must be rejected, got: %v", p.ID, err)
			}
			return nil
		})
	})
	t.Run("length-mismatch", func(t *testing.T) {
		runBoth(t, 322, func(p *Party) error {
			short := opened[p.ID]
			clipped := &FixedWeight{Mask: short.Mask, F: short.F[:len(short.F)-1], seed: short.seed, sum: short.sum}
			_, err := p.MatMulFixedW(x, shares[p.ID], clipped)
			if err == nil || !strings.Contains(err.Error(), "length") {
				t.Errorf("party %d: length mismatch must be rejected, got: %v", p.ID, err)
			}
			return nil
		})
	})
	t.Run("nil-opening", func(t *testing.T) {
		runBoth(t, 322, func(p *Party) error {
			_, err := p.MatMulFixedW(x, shares[p.ID], nil)
			if err == nil || !strings.Contains(err.Error(), "nil fixed weight") {
				t.Errorf("party %d: nil F must be rejected, got: %v", p.ID, err)
			}
			return nil
		})
	})
	t.Run("fresh-generation-differs", func(t *testing.T) {
		// The guard exists because a new generation really does mint a new
		// b: re-opening the same shares under a new seed yields a new F.
		var mu2 sync.Mutex
		reopened := map[int]*FixedWeight{}
		runBoth(t, 323, func(p *Party) error {
			fw, err := p.OpenFixedW(0, shares[p.ID])
			if err != nil {
				return err
			}
			mu2.Lock()
			reopened[p.ID] = fw
			mu2.Unlock()
			return nil
		})
		for id := range reopened {
			if wordsEqual(reopened[id].F, opened[id].F) {
				t.Fatalf("party %d: a new generation must mint a fresh mask (F unchanged)", id)
			}
		}
	})
}
