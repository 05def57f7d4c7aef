package mpc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"pasnet/internal/rng"
)

// Suite for the two-term Beaver combine: mulCombine folds party 1's −E∘F
// into its X∘F term, which must leave every party's *share* — not just the
// reconstruction — exactly what the three-term form of paper Eq. 2 gives.

// threeTermCombine is paper Eq. 2 as written, R_i = X_i∘F + E∘Y_i + Z_i −
// i·E∘F: the reference the regrouped mulCombine is checked against.
func threeTermCombine(id int, out, e, f, x, y, z []uint64, apply func(dst, a, b []uint64)) {
	tmp := make([]uint64, len(out))
	apply(out, x, f)
	apply(tmp, e, y)
	ringAdd(out, out, tmp)
	ringAdd(out, out, z)
	if id == 1 {
		apply(tmp, e, f)
		ringSub(out, out, tmp)
	}
}

func randWords(r *rng.RNG, n int) []uint64 {
	v := make([]uint64, n)
	r.FillUint64(v)
	return v
}

// TestMulCombineMatchesThreeTermForm draws full-range ring operands for
// each bilinear op the combine serves and compares share-for-share on both
// party IDs. The FixedW forms call the same combine with f = the cached
// opening and y = the weight share, so the conv and matmul cases are theirs
// too; TestLinearOpSharesGolden pins them through the protocol.
func TestMulCombineMatchesThreeTermForm(t *testing.T) {
	const m, k, n = 5, 7, 3
	dims := ConvDims{N: 2, InC: 4, H: 5, W: 5, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	dw := ConvDims{N: 2, InC: 4, H: 5, W: 5, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}
	cases := []struct {
		name         string
		nx, ny, nout int
		apply        func(dst, a, b []uint64)
	}{
		{"hadamard", 33, 33, 33, ringMul},
		{"matmul", m * k, k * n, m * n, func(dst, a, b []uint64) { ringMatMul(dst, a, b, m, k, n) }},
		{"conv", dims.InLen(), dims.KLen(), dims.OutLen(), func(dst, a, b []uint64) { ringConv2D(dst, a, b, dims) }},
		{"depthwise", dw.InLen(), dw.KLen(), dw.OutLen(), func(dst, a, b []uint64) { ringConv2D(dst, a, b, dw) }},
	}
	r := rng.New(1901)
	for _, c := range cases {
		for id := 0; id < 2; id++ {
			p := &Party{ID: id}
			// Two rounds on one Party: the second reuses warm scratch.
			for round := 0; round < 2; round++ {
				e, x := randWords(r, c.nx), randWords(r, c.nx)
				f, y := randWords(r, c.ny), randWords(r, c.ny)
				z := randWords(r, c.nout)
				got, want := make([]uint64, c.nout), make([]uint64, c.nout)
				p.mulCombine(got, e, f, x, y, z, c.apply)
				threeTermCombine(id, want, e, f, x, y, z, c.apply)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s party %d round %d: share[%d] = %#x, three-term form gives %#x", c.name, id, round, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// linearOpShares runs every op that ends in mulCombine once on fixed seeds
// and returns an FNV-1a digest of each party's output shares, in op order.
func linearOpShares(t *testing.T) [2]uint64 {
	t.Helper()
	const m, k, n = 3, 5, 4
	dims := ConvDims{N: 2, InC: 4, H: 6, W: 6, OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	r := rng.New(1902)
	norm := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Norm()
		}
		return v
	}
	xm, wm := norm(m*k), norm(k*n)
	xc, wc := norm(dims.InLen()), norm(dims.KLen())
	var sums [2]uint64
	runBoth(t, 1903, func(p *Party) error {
		var shareErr error
		share := func(vals []float64, shape ...int) Share {
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(vals)
			}
			s, err := p.ShareInput(0, enc, shape...)
			if err != nil && shareErr == nil {
				shareErr = err
			}
			return s
		}
		sxm, swm := share(xm, m, k), share(wm, k, n)
		sxc, swc := share(xc, dims.N, dims.InC, dims.H, dims.W), share(wc, dims.KLen())
		if shareErr != nil {
			return shareErr
		}
		fwm, err := p.OpenFixedW(0, swm)
		if err != nil {
			return err
		}
		fwc, err := p.OpenFixedW(1, swc)
		if err != nil {
			return err
		}
		ops := []func() (Share, error){
			func() (Share, error) { return p.MulHadamardRaw(sxm, sxm) },
			func() (Share, error) { return p.MatMul(sxm, swm) },
			func() (Share, error) { return p.Conv2D(sxc, swc, dims) },
			func() (Share, error) { return p.MatMulFixedW(sxm, swm, fwm) },
			func() (Share, error) { return p.Conv2DFixedW(sxc, swc, fwc, dims) },
		}
		h := fnv.New64a()
		var word [8]byte
		for i, op := range ops {
			out, err := op()
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			for _, v := range out.V {
				binary.LittleEndian.PutUint64(word[:], v)
				h.Write(word[:])
			}
		}
		sums[p.ID] = h.Sum64()
		return nil
	})
	return sums
}

// TestLinearOpSharesGolden pins each party's output shares of Hadamard,
// MatMul, Conv2D and both FixedW forms, so a change to an op's combine
// cannot move a single share bit unnoticed. The digests were re-recorded on
// purpose when the dealer's draw order changed to per-party sub-streams
// (each party's a/b halves drawn, the plain operands their sum): the
// correlations moved, so the output shares did.
func TestLinearOpSharesGolden(t *testing.T) {
	want := [2]uint64{0x15e1278c50a44306, 0x60a4ee416d82d4d6}
	if got := linearOpShares(t); got != want {
		t.Fatalf("output share digests = {%#x, %#x}, want {%#x, %#x}", got[0], got[1], want[0], want[1])
	}
}
