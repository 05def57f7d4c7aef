package mpc

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
)

// Protocol-level suite for the fixed weight-mask correlations: the FixedW
// ops must match plaintext across flushes under one opened F = W−b, send
// only party 1's masked activation (ownerside_test.go pins the frames), and
// the lifetime guards must reject every way an F can outlive its value
// (new dealer generation, mutated share, wrong length, re-pinned slot).

// TestMatMulFixedWMatchesPlain runs several flushes of x@W with one opened
// F = W−b and checks each against plaintext, plus the exact per-op byte
// saving versus the per-flush MatMul, whose opening sends x−a and w−b from
// both parties: the owner-side op sends only x−a, from party 1, so party 1
// saves the weight payload and party 0 its whole opening.
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
			// Every flush, the fixed op is 8 bytes per weight element
			// cheaper on party 1 and sends nothing at all on party 0.
			saved := (sent1 - sent0) - (sent2 - sent1)
			wantSaved := int64(8 * k * n)
			if p.ID == 0 {
				wantSaved += 8 * m * k
			}
			if saved != wantSaved {
				t.Errorf("party %d flush %d: fixed matmul saved %d bytes, want %d", p.ID, f, saved, wantSaved)
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
	a1, b1, z1, _ := dA.TakeMatMul(2, 3, 4)
	a2, b2, z2, _ := dB.TakeMatMul(2, 3, 4)
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
	if _, _, err := d.TakeMatMulFixedB(7, 2, 3, 5); err == nil {
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

// TestFixedWeightPlanBelongsToItsOpening pins the packed conv operand to
// the FixedWeight it was built from. A flush packs the party's operand (W
// on party 0, F on party 1) once: a later flush, at another batch size,
// runs the same plan; a different map size packs anew. Re-opening the same
// shares under a revived dealer seed mints a new FixedWeight, which packs
// its own operand and never inherits the old plan — the output it computes
// matches plaintext under the new generation's mask.
func TestFixedWeightPlanBelongsToItsOpening(t *testing.T) {
	r := rng.New(331)
	dims := ConvDims{N: 2, InC: 2, H: 5, W: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ws := make([]float64, dims.KLen())
	r.FillNorm(ws, 0.5)
	xs := make([]float64, 4*dims.InC*7*7)
	r.FillNorm(xs, 1)
	// conv runs one Conv2DFixedW at batch n and map hw and checks it
	// against plaintext.
	conv := func(p *Party, w Share, fw *FixedWeight, n, hw int) error {
		d := dims
		d.N, d.H, d.W = n, hw, hw
		in := xs[:d.InLen()]
		var encX []uint64
		if p.ID == 1 {
			encX = p.EncodeTensor(in)
		}
		x, err := p.ShareInput(1, encX, d.N, d.InC, d.H, d.W)
		if err != nil {
			return err
		}
		y, err := p.Conv2DFixedW(x, w, fw, d)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(y)
		if err != nil {
			return err
		}
		got, want := p.DecodeTensor(plain), plainConvRef(in, ws, d)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("party %d N=%d %d×%d: conv elem %d = %v, want %v", p.ID, n, hw, hw, i, got[i], want[i])
				break
			}
		}
		return nil
	}
	// packs reports whether pl runs fw's operand at dims' geometry.
	packs := func(pl *kernel.ConvPlan[uint64], fw *FixedWeight, d ConvDims) bool {
		x := make([]uint64, d.InLen())
		rng.New(332).FillUint64(x)
		got, want := make([]uint64, d.OutLen()), make([]uint64, d.OutLen())
		pl.Run(got, x, d.N)
		kernel.Conv2DNaive(want, x, fw.op, d.shape())
		return wordsEqual(got, want)
	}
	var mu sync.Mutex
	shares := map[int]Share{}
	old := map[int]*kernel.ConvPlan[uint64]{}
	runBoth(t, 333, func(p *Party) error {
		var encW []uint64
		if p.ID == 0 {
			encW = p.EncodeTensor(ws)
		}
		w, err := p.ShareInput(0, encW, dims.OutC, dims.InC, dims.KH, dims.KW)
		if err != nil {
			return err
		}
		fw, err := p.OpenFixedW(5, w)
		if err != nil {
			return err
		}
		if fw.plan.Load() != nil {
			t.Errorf("party %d: a fresh opening holds a plan before any flush", p.ID)
		}
		if err := conv(p, w, fw, 2, 5); err != nil {
			return err
		}
		first := fw.plan.Load()
		if first == nil || !packs(first, fw, dims) {
			t.Errorf("party %d: the first flush did not pack the party's operand", p.ID)
		}
		if err := conv(p, w, fw, 1, 5); err != nil {
			return err
		}
		if fw.plan.Load() != first {
			t.Errorf("party %d: a flush at another batch size re-packed the operand", p.ID)
		}
		if err := conv(p, w, fw, 1, 7); err != nil {
			return err
		}
		d7 := dims
		d7.N, d7.H, d7.W = 1, 7, 7
		if pl := fw.plan.Load(); pl == first || !packs(pl, fw, d7) {
			t.Errorf("party %d: a flush on a 7×7 map ran the 5×5 plan", p.ID)
		}
		mu.Lock()
		shares[p.ID], old[p.ID] = w, fw.plan.Load()
		mu.Unlock()
		return nil
	})
	runBoth(t, 334, func(p *Party) error {
		fw, err := p.OpenFixedW(5, shares[p.ID])
		if err != nil {
			return err
		}
		if err := conv(p, shares[p.ID], fw, 1, 7); err != nil {
			return err
		}
		pl := fw.plan.Load()
		if pl == nil || pl == old[p.ID] {
			t.Errorf("party %d: the revived opening reused the old generation's plan", p.ID)
		}
		d7 := dims
		d7.N, d7.H, d7.W = 1, 7, 7
		if pl != nil && !packs(pl, fw, d7) {
			t.Errorf("party %d: the revived opening's plan does not pack its own operand", p.ID)
		}
		return nil
	})
}

// TestStreamPacksEachFixedMaskOnce pins the Stream's per-slot plan: conv
// FixedB draws on one slot reuse the plan the first draw packed, whatever
// the batch size, and a draw at another geometry packs a new one. Each
// deal's z is the product with the plain mask.
func TestStreamPacksEachFixedMaskOnce(t *testing.T) {
	const seed = 335
	s := NewStream(rng.New(seed), seed)
	d := ConvDims{N: 2, InC: 3, H: 4, W: 4, OutC: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	check := func(t Deal, d ConvDims) bool {
		want := make([]uint64, d.OutLen())
		kernel.Conv2DNaive(want, t.A1, FixedMaskPlain(seed, 2, d.KLen()), d.shape())
		z := t.Z1()
		ringAdd(z, z, t.Z0)
		return wordsEqual(z, want)
	}
	t1, err := s.ConvFixedB(2, d)
	if err != nil {
		t.Fatal(err)
	}
	first := s.plans[2]
	d1 := d
	d1.N = 1
	t2, err := s.ConvFixedB(2, d1)
	if err != nil {
		t.Fatal(err)
	}
	if s.plans[2] != first {
		t.Fatal("a draw at another batch size re-packed the slot's mask")
	}
	d6 := d
	d6.H, d6.W = 6, 6
	t3, err := s.ConvFixedBShared(2, d6)
	if err == nil {
		t.Fatal("a shared draw on a differently sized input must fail")
	}
	if t3, err = s.ConvFixedB(2, d6); err != nil {
		t.Fatal(err)
	}
	if s.plans[2] == first {
		t.Fatal("a draw on a 6×6 map ran the 4×4 plan")
	}
	for i, c := range []struct {
		t Deal
		d ConvDims
	}{{t1, d}, {t2, d1}, {t3, d6}} {
		if !check(c.t, c.d) {
			t.Fatalf("deal %d: z0 + z1 is not conv(a, b)", i)
		}
	}
}

// TestFixedWeightPlanConcurrentFlushes packs and runs one FixedWeight's
// plan from several goroutines at once, at two map sizes, so the race
// detector sees every access to the cached plan; each run must match the
// naive conv of the operand.
func TestFixedWeightPlanConcurrentFlushes(t *testing.T) {
	r := rng.New(336)
	dims := ConvDims{N: 2, InC: 3, H: 4, W: 4, OutC: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	fw := &FixedWeight{op: make([]uint64, dims.KLen())}
	r.FillUint64(fw.op)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d := dims
				d.H, d.W = 4+(g+i)%2, 4+(g+i)%2
				x := make([]uint64, d.InLen())
				rng.New(uint64(g*100 + i)).FillUint64(x)
				got, want := make([]uint64, d.OutLen()), make([]uint64, d.OutLen())
				fw.convPlan(d).Run(got, x, d.N)
				kernel.Conv2DNaive(want, x, fw.op, d.shape())
				if !wordsEqual(got, want) {
					t.Errorf("goroutine %d run %d: %d×%d conv diverges from naive", g, i, d.H, d.W)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
