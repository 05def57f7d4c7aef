package kernel

import (
	"fmt"
	"testing"

	"pasnet/internal/rng"
)

// benchShape is a mid-sized layer typical of the CIFAR backbones: the
// point where the naive loops start dominating Fig. 5 regeneration.
var benchShape = ConvShape{N: 4, InC: 16, H: 16, W: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}

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
