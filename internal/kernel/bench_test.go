package kernel

import (
	"fmt"
	"testing"

	"pasnet/internal/rng"
)

// benchShape is a mid-sized layer typical of the CIFAR backbones: the
// point where the naive loops start dominating Fig. 5 regeneration.
var benchShape = ConvShape{N: 4, InC: 16, H: 16, W: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}

// servedShapes lists every distinct convolution a served query of the
// demo backbone executes at batch size n: ResNet-18 at width 1/16 on
// 3×8×8 inputs — 4/8/16/32 output channels over 8×8 → 1×1 maps, 3×3 at
// stride 1 and 2 plus the 1×1/2 projection shortcuts. These are the small
// OutC, small-map calls benchShape hides.
func servedShapes(n int) []ConvShape {
	conv := func(inC, hw, outC, k, stride int) ConvShape {
		return ConvShape{N: n, InC: inC, H: hw, W: hw, OutC: outC, KH: k, KW: k, Stride: stride, Pad: k / 2}
	}
	shapes := []ConvShape{conv(3, 8, 4, 3, 1), conv(4, 8, 4, 3, 1)}
	for c, hw := 4, 8; c < 32; c, hw = 2*c, hw/2 {
		shapes = append(shapes,
			conv(c, hw, 2*c, 3, 2), // stage entry
			conv(c, hw, 2*c, 1, 2), // projection shortcut
			conv(2*c, hw/2, 2*c, 3, 1))
	}
	return shapes
}

// servedProgram lists the 20 convolutions one served query of the demo
// backbone runs, in program order, at batch size n: the stem, stage 1's
// four 4→4 convs, then per later stage its entry, its 1×1 shortcut and
// three convs at the doubled width — servedShapes with each shape as often
// as the program runs it.
func servedProgram(n int) []ConvShape {
	sh := servedShapes(n)
	prog := []ConvShape{sh[0], sh[1], sh[1], sh[1], sh[1]}
	for i := 2; i < len(sh); i += 3 {
		prog = append(prog, sh[i], sh[i+1], sh[i+2], sh[i+2], sh[i+2])
	}
	return prog
}

// BenchmarkConvServed times one pass over servedShapes in the ring domain
// at the served flush sizes — 1 and 16 rows, and the ~2-row flushes of a
// queue-aware multi-client lane — and reports allocations and GMAC/s, so
// the kernel's share of a served query can be reproduced without the
// ledger. The ring-N* runs are one-shot Conv2D calls, which pack the kernel
// every time (training, Beaver triples); the ring-N*-packed runs reuse one
// ConvPlan per shape, built outside the timer, as a served session's fixed
// weights do. GMAC/s counts every tap of the padded receptive field, so it
// is comparable across lowerings; in-bounds-GMAC/s counts only the taps a
// ConvPlan multiplies (about 60 % of them on these shapes), the work done.
// ring-N16-program runs servedProgram(16) on packed plans: every conv of a
// served 16-row flush, as party 0 runs them.
func BenchmarkConvServed(b *testing.B) {
	type run struct {
		name   string
		n      int
		packed bool
		shapes func(int) []ConvShape
	}
	var runs []run
	for _, packed := range []bool{false, true} {
		for _, n := range []int{1, 2, 4, 16} {
			name := fmt.Sprintf("ring-N%d", n)
			if packed {
				name += "-packed"
			}
			runs = append(runs, run{name, n, packed, servedShapes})
		}
	}
	runs = append(runs, run{"ring-N16-program", 16, true, servedProgram})
	for _, c := range runs {
		n, packed := c.n, c.packed
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(8)
			shapes := c.shapes(n)
			xs, ks, outs := make([][]uint64, len(shapes)), make([][]uint64, len(shapes)), make([][]uint64, len(shapes))
			plans := make([]*ConvPlan[uint64], len(shapes))
			macs, inBounds := 0, 0
			for i, s := range shapes {
				xs[i], ks[i], outs[i] = fillU64(r, s.InLen()), fillU64(r, s.KLen()), make([]uint64, s.OutLen())
				plans[i] = NewConvPlan(ks[i], s)
				macs += s.OutLen() * (s.InC / s.NormGroups()) * s.KH * s.KW
				inBounds += plans[i].inBoundsMACs(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, s := range shapes {
					if packed {
						plans[j].Run(outs[j], xs[j], n)
					} else {
						Conv2D(outs[j], xs[j], ks[j], s)
					}
				}
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			b.ReportMetric(float64(inBounds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "in-bounds-GMAC/s")
		})
	}
}

// inBoundsMACs is the number of multiply-adds one Run at n batch rows
// performs: every output channel's in-bounds taps at every position.
func (p *ConvPlan[T]) inBoundsMACs(n int) int { return n * p.s.OutC * p.macs }

// paperScaleShapes lists the 3×3 convolutions of a full-width CIFAR
// ResNet-18 on 32×32 inputs at batch size n, in layer order: the stem, the
// first stage's four 64-channel convs, then per later stage a stride-2
// entry and three convs at the doubled width — 17 layers, 0.549 G padded
// MACs per image. The 1×1 projection shortcuts are left out.
func paperScaleShapes(n int) []ConvShape {
	conv := func(inC, hw, outC, stride int) ConvShape {
		return ConvShape{N: n, InC: inC, H: hw, W: hw, OutC: outC, KH: 3, KW: 3, Stride: stride, Pad: 1}
	}
	shapes := []ConvShape{conv(3, 32, 64, 1)}
	for range 4 {
		shapes = append(shapes, conv(64, 32, 64, 1))
	}
	for c, hw := 64, 32; c < 512; c, hw = 2*c, hw/2 {
		shapes = append(shapes, conv(c, hw, 2*c, 2))
		for range 3 {
			shapes = append(shapes, conv(2*c, hw/2, 2*c, 1))
		}
	}
	return shapes
}

// BenchmarkConvPaperScale times ring-domain batches of one image (N1) and
// of 16 (N16) through paperScaleShapes on packed ConvPlans and reports
// in-bounds GMAC/s — the paper's regime, which the width-1/16 served
// backbone hides. Plans are built outside the timer, one layer at a time
// and reused across a run of identical layers: a 512→512 plan alone holds
// ~103 MB.
func BenchmarkConvPaperScale(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			r := rng.New(9)
			shapes := paperScaleShapes(n)
			inBounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var p *ConvPlan[uint64]
				for j, s := range shapes {
					b.StopTimer()
					if j == 0 || s != shapes[j-1] {
						p = nil // let the previous layer's plan go before packing the next
						p = NewConvPlan(fillU64(r, s.KLen()), s)
					}
					x, out := fillU64(r, s.InLen()), make([]uint64, s.OutLen())
					b.StartTimer()
					p.Run(out, x, s.N)
					if i == 0 {
						inBounds += p.inBoundsMACs(s.N)
					}
				}
			}
			b.ReportMetric(float64(inBounds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "in-bounds-GMAC/s")
		})
	}
}

func benchConv[T Elem](b *testing.B, fill func(*rng.RNG, int) []T, naive bool) {
	r := rng.New(1)
	x := fill(r, benchShape.InLen())
	k := fill(r, benchShape.KLen())
	out := make([]T, benchShape.OutLen())
	prev := SetNaive(naive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(out, x, k, benchShape)
	}
	b.StopTimer()
	SetNaive(prev)
	b.ReportMetric(float64(benchShape.OutLen()), "out-elems")
}

func BenchmarkConvRingNaive(b *testing.B)   { benchConv(b, fillU64, true) }
func BenchmarkConvRingLowered(b *testing.B) { benchConv(b, fillU64, false) }
func BenchmarkConvF64Naive(b *testing.B)    { benchConv(b, fillF64, true) }
func BenchmarkConvF64Lowered(b *testing.B)  { benchConv(b, fillF64, false) }

// BenchmarkConvDepthwise measures the grouped path (MobileNet block size).
func BenchmarkConvDepthwise(b *testing.B) {
	s := ConvShape{N: 4, InC: 32, H: 16, W: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 32}
	r := rng.New(2)
	x := fillF64(r, s.InLen())
	k := fillF64(r, s.KLen())
	out := make([]float64, s.OutLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(out, x, k, s)
	}
}

// BenchmarkMatMul sweeps square GEMM sizes in the ring domain on the
// tiled kernel.
func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) {
			r := rng.New(3)
			a := fillU64(r, n*n)
			bb := fillU64(r, n*n)
			dst := make([]uint64, n*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, a, bb, n, n, n)
			}
		})
	}
}

// BenchmarkMatMulBackends pins naive vs tiled head to head on the
// register-tiling headline shape in both element domains.
func BenchmarkMatMulBackends(b *testing.B) {
	for _, naive := range []bool{true, false} {
		name := "tiled"
		if naive {
			name = "naive"
		}
		b.Run("ring-"+name, func(b *testing.B) { benchMatMul256(b, fillU64, 5, naive) })
		b.Run("f64-"+name, func(b *testing.B) { benchMatMul256(b, fillF64, 6, naive) })
	}
}

func benchMatMul256[T Elem](b *testing.B, fill func(*rng.RNG, int) []T, seed uint64, naive bool) {
	const n = 256
	r := rng.New(seed)
	a := fill(r, n*n)
	bb := fill(r, n*n)
	dst := make([]T, n*n)
	defer SetNaive(SetNaive(naive))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, bb, n, n, n)
	}
}

// BenchmarkConvGradsF64 measures the training backward path.
func BenchmarkConvGradsF64(b *testing.B) {
	r := rng.New(4)
	x := fillF64(r, benchShape.InLen())
	k := fillF64(r, benchShape.KLen())
	gy := fillF64(r, benchShape.OutLen())
	dx := make([]float64, benchShape.InLen())
	dk := make([]float64, benchShape.KLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DGrads(dx, dk, x, k, gy, benchShape)
	}
}
