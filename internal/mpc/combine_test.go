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
// party IDs. The FixedW forms run the owner-side combine and the select the
// owned bit×ring product instead; TestLinearOpSharesGolden pins all of them
// through the protocol.
func TestMulCombineMatchesThreeTermForm(t *testing.T) {
	const m, k, n = 5, 7, 3
	dims := ConvDims{N: 2, InC: 4, H: 5, W: 5, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	dw := ConvDims{N: 2, InC: 4, H: 5, W: 5, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}
	cases := []struct {
		name         string
		nx, ny, nout int
		apply        func(dst, a, b []uint64)
	}{
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

// linearOpNames names linearOpShares' ops, in the order they run.
var linearOpNames = []string{"select", "matmul", "conv", "matmul-fixedw", "conv-fixedw"}

// linearOpShares runs every bilinear op once on fixed seeds — the select,
// the two Beaver ops and both FixedW forms — and returns an FNV-1a digest of each
// party's output shares per op, keyed by linearOpNames. Each op runs in a
// session of its own on the same inputs, so its digest depends only on its
// own correlation draws, never on what an op before it drew.
func linearOpShares(t *testing.T) map[string][2]uint64 {
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
	// The select's bits are the signs of wm, cycled over xm.
	signs := make([]uint64, m*k)
	for i := range signs {
		if wm[i%len(wm)] < 0 {
			signs[i] = 1
		}
	}
	sums := make([][2]uint64, len(linearOpNames))
	for i := range linearOpNames {
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
				func() (Share, error) { return p.selectBits(shareTestBits(p.ID, signs), sxm) },
				func() (Share, error) { return p.MatMul(sxm, swm) },
				func() (Share, error) { return p.Conv2D(sxc, swc, dims) },
				func() (Share, error) { return p.MatMulFixedW(sxm, swm, fwm) },
				func() (Share, error) { return p.Conv2DFixedW(sxc, swc, fwc, dims) },
			}
			out, err := ops[i]()
			if err != nil {
				return fmt.Errorf("%s: %w", linearOpNames[i], err)
			}
			h := fnv.New64a()
			var word [8]byte
			for _, v := range out.V {
				binary.LittleEndian.PutUint64(word[:], v)
				h.Write(word[:])
			}
			sums[i][p.ID] = h.Sum64()
			return nil
		})
	}
	got := make(map[string][2]uint64, len(sums))
	for i, name := range linearOpNames {
		got[name] = sums[i]
	}
	return got
}

// TestLinearOpSharesGolden pins each party's output shares of the select,
// MatMul, Conv2D and both FixedW forms, op by op, so a change to an op's
// combine cannot move a single share bit unnoticed. The FixedW digests were
// re-recorded on purpose when the linear layers went owner-side (party 1
// owns a, party 0 computes with W), and the select row replaced the
// elementwise product's when that product left the protocol and the
// select went to one bit per selector on the selector triple: those
// protocols and their correlations changed. Every op runs in a fresh
// session, so the other digests are what the symmetric triple's code gives
// for the same isolated ops.
func TestLinearOpSharesGolden(t *testing.T) {
	want := map[string][2]uint64{
		"select":        {0x1ceab4bd1a2063e7, 0x131f6b768509bd1f},
		"matmul":        {0x0fd32cd743da0e92, 0x9a59ede86c6882d5},
		"conv":          {0xbe9e62171125cb86, 0x73e18a62ba8700a3},
		"matmul-fixedw": {0xee9213b5c864ba80, 0xeaf479208c3aa471},
		"conv-fixedw":   {0xd1872cb35a26cc26, 0x8e9b3d199b306a12},
	}
	got := linearOpShares(t)
	for _, name := range linearOpNames {
		if got[name] != want[name] {
			t.Errorf("%s output share digests = {%#x, %#x}, want {%#x, %#x}", name, got[name][0], got[name][1], want[name][0], want[name][1])
		}
	}
}
