package mpc

import (
	"sync"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/kernel"
	"pasnet/internal/rng"
)

// Test2PCConvKernelEquivalence runs the full 2PC-Conv protocol — dealer
// triples, Beaver opening and combine — once on the lowered conv/GEMM
// kernel and once with kernel.SetNaive forcing the scalar reference loops,
// and requires bit-identical reconstructed outputs for dense, strided,
// grouped and depthwise geometries.
func Test2PCConvKernelEquivalence(t *testing.T) {
	cases := []ConvDims{
		{N: 1, InC: 3, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{N: 2, InC: 2, H: 7, W: 5, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{N: 1, InC: 4, H: 6, W: 6, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 2},
		{N: 1, InC: 4, H: 6, W: 6, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}, // depthwise
	}
	r := rng.New(77)
	for _, dims := range cases {
		xs := make([]float64, dims.InLen())
		ws := make([]float64, dims.KLen())
		r.FillNorm(xs, 1)
		r.FillNorm(ws, 0.5)
		var outs [2][]uint64
		for pass, naive := range []bool{false, true} {
			prev := kernel.SetNaive(naive)
			var mu sync.Mutex
			// Same dealer seed on both passes: the masks (and therefore the
			// share-dependent ±1 LSB truncation outcomes) are identical, so
			// any difference can only come from the conv kernel itself.
			err := RunProtocol(13, fixed.Default64(), func(p *Party) error {
				var encX, encW []uint64
				if p.ID == 0 {
					encX = p.EncodeTensor(xs)
					encW = p.EncodeTensor(ws)
				}
				x, err := p.ShareInput(0, encX, dims.N, dims.InC, dims.H, dims.W)
				if err != nil {
					return err
				}
				w, err := p.ShareInput(0, encW, dims.KLen())
				if err != nil {
					return err
				}
				y, err := p.Conv2D(x, w, dims)
				if err != nil {
					return err
				}
				vals, err := p.Reveal(y)
				if err != nil {
					return err
				}
				if p.ID == 0 {
					mu.Lock()
					outs[pass] = vals
					mu.Unlock()
				}
				return nil
			})
			kernel.SetNaive(prev)
			if err != nil {
				t.Fatalf("dims %+v naive=%v: %v", dims, naive, err)
			}
		}
		if len(outs[0]) != dims.OutLen() || len(outs[1]) != dims.OutLen() {
			t.Fatalf("dims %+v: output lengths %d/%d, want %d", dims, len(outs[0]), len(outs[1]), dims.OutLen())
		}
		for i := range outs[0] {
			if outs[0][i] != outs[1][i] {
				t.Fatalf("dims %+v: lowered and naive 2PC conv diverge at %d: %d vs %d",
					dims, i, outs[0][i], outs[1][i])
			}
		}
	}
}
