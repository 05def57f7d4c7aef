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

// BenchmarkConvServed times one pass over servedShapes in the ring domain
// at the two served batch sizes (a 1-row flush takes Conv2D's serial-block
// branch, a 16-row flush the batched one) and reports allocations and
// GMAC/s, so the kernel's share of a served query can be reproduced
// without the ledger.
func BenchmarkConvServed(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("ring-N%d", n), func(b *testing.B) {
			r := rng.New(8)
			shapes := servedShapes(n)
			xs, ks, outs := make([][]uint64, len(shapes)), make([][]uint64, len(shapes)), make([][]uint64, len(shapes))
			macs := 0
			for i, s := range shapes {
				xs[i], ks[i], outs[i] = fillU64(r, s.InLen()), fillU64(r, s.KLen()), make([]uint64, s.OutLen())
				macs += s.OutLen() * (s.InC / s.NormGroups()) * s.KH * s.KW
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, s := range shapes {
					Conv2D(outs[j], xs[j], ks[j], s)
				}
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
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
