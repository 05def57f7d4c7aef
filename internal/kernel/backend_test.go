package kernel

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pasnet/internal/rng"
)

// TestBackendSwitchRoundTrip pins the one kernel switch: SetNaive returns
// the previous setting, Naive reports the current one, and a round trip
// lands back on the tiled default.
func TestBackendSwitchRoundTrip(t *testing.T) {
	orig := SetNaive(false)
	defer SetNaive(orig)
	if Naive() {
		t.Fatal("Naive() = true after SetNaive(false)")
	}
	if prev := SetNaive(true); prev {
		t.Fatal("SetNaive(true) returned true, want the previous false")
	}
	if !Naive() {
		t.Fatal("Naive() = false after SetNaive(true)")
	}
	if prev := SetNaive(false); !prev {
		t.Fatal("SetNaive(false) returned false, want the previous true")
	}
	if Naive() {
		t.Fatal("SetNaive round trip did not restore the tiled path")
	}
}

// TestParseWorkers pins the one env input the package reads: a positive
// integer is used, empty means NumCPU, and anything else falls back to
// NumCPU with an error that names the variable and the rejected value.
func TestParseWorkers(t *testing.T) {
	const ncpu = 8
	for _, tc := range []struct {
		in   string
		want int
		bad  bool
	}{
		{"", ncpu, false},
		{"1", 1, false},
		{"32", 32, false},
		{"0", ncpu, true},
		{"-3", ncpu, true},
		{"abc", ncpu, true},
		{"2.5", ncpu, true},
		{" 4", ncpu, true},
	} {
		got, err := parseWorkers(tc.in, ncpu)
		if got != tc.want {
			t.Errorf("parseWorkers(%q) = %d, want %d", tc.in, got, tc.want)
		}
		if (err != nil) != tc.bad {
			t.Errorf("parseWorkers(%q) error = %v, want error: %v", tc.in, err, tc.bad)
		}
		if err != nil && !(strings.Contains(err.Error(), workersEnv) && strings.Contains(err.Error(), strconv.Quote(tc.in))) {
			t.Errorf("parseWorkers(%q) error %q does not name the variable and the bad value", tc.in, err)
		}
	}
}

// gemmCase is one randomized geometry of the naive ≡ tiled suite; sizes
// straddle the tileM/tileN panel boundaries (1×1 up to several panels).
type gemmCase struct {
	m, k, n int
}

func randGemmCases(r *rng.RNG, iters int) []gemmCase {
	cases := []gemmCase{
		{1, 1, 1},
		{tileM, 1, tileN},
		{tileM + 1, 2, tileN + 1},
		{2*tileM - 1, 17, 2*tileN - 1},
		{3 * tileM, 31, 3 * tileN},
	}
	for i := 0; i < iters; i++ {
		cases = append(cases, gemmCase{1 + r.Intn(3*tileM+2), 1 + r.Intn(40), 1 + r.Intn(3*tileN+2)})
	}
	return cases
}

// runVariants evaluates all four GEMM variants on the active path. The
// transposed operands are materialized by the caller so both paths see
// identical inputs.
func runVariants[T Elem](dst map[string][]T, a, b, at, bt, accInit []T, m, k, n int) {
	MatMul(dst["matmul"], a, b, m, k, n)
	MatMulTransA(dst["transA"], at, b, k, m, n)
	MatMulTransB(dst["transB"], a, bt, m, k, n)
	copy(dst["transBAcc"], accInit)
	MatMulTransBAcc(dst["transBAcc"], a, bt, m, k, n)
}

func newVariantDst[T Elem](mn int) map[string][]T {
	return map[string][]T{
		"matmul":    make([]T, mn),
		"transA":    make([]T, mn),
		"transB":    make([]T, mn),
		"transBAcc": make([]T, mn),
	}
}

// TestGEMMVariantsCrossBackend is the naive ≡ tiled equivalence property:
// every GEMM variant, in both element domains, at worker counts 1, 4 and
// NumCPU, over randomized panel-straddling geometries. Ring results must
// agree exactly; float64 results must be bit-identical (==, not
// tolerance) — the per-element accumulation runs in ascending-k order on
// both paths, which is also what keeps results worker-count independent
// and the two 2PC parties in lockstep.
func TestGEMMVariantsCrossBackend(t *testing.T) {
	defer SetNaive(SetNaive(false))
	r := rng.New(46)
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		prevW := SetWorkers(w)
		for _, c := range randGemmCases(r, 25) {
			m, k, n := c.m, c.k, c.n

			af := fillF64(r, m*k)
			bf := fillF64(r, k*n)
			atf := transposeF(af, m, k)
			btf := transposeF(bf, k, n)
			accF := fillF64(r, m*n)
			au := fillU64(r, m*k)
			bu := fillU64(r, k*n)
			atu := transposeU(au, m, k)
			btu := transposeU(bu, k, n)
			accU := fillU64(r, m*n)

			var outF [2]map[string][]float64
			var outU [2]map[string][]uint64
			for i, naive := range []bool{true, false} {
				SetNaive(naive)
				outF[i] = newVariantDst[float64](m * n)
				runVariants(outF[i], af, bf, atf, btf, accF, m, k, n)
				outU[i] = newVariantDst[uint64](m * n)
				runVariants(outU[i], au, bu, atu, btu, accU, m, k, n)
			}
			for variant, want := range outF[0] {
				got := outF[1][variant]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d m=%d k=%d n=%d: float64 %s tiled not bit-identical to naive at %d: %x vs %x",
							w, m, k, n, variant, i, got[i], want[i])
					}
				}
			}
			for variant, want := range outU[0] {
				got := outU[1][variant]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d m=%d k=%d n=%d: ring %s tiled mismatches naive at %d: %d vs %d",
							w, m, k, n, variant, i, got[i], want[i])
					}
				}
			}
		}
		SetWorkers(prevW)
	}
}

func transposeF(a []float64, rows, cols int) []float64 {
	at := make([]float64, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			at[j*rows+i] = a[i*cols+j]
		}
	}
	return at
}

func transposeU(a []uint64, rows, cols int) []uint64 {
	at := make([]uint64, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			at[j*rows+i] = a[i*cols+j]
		}
	}
	return at
}

// TestConvCrossBackend runs the conv forward and backward paths naive and
// tiled over the random geometry zoo: the im2col GEMM and the gradient
// GEMM variants must agree exactly in the ring and bit-identically in
// float64, at 1 worker and NumCPU.
func TestConvCrossBackend(t *testing.T) {
	defer SetNaive(SetNaive(false))
	r := rng.New(47)
	for _, w := range []int{1, runtime.NumCPU()} {
		prevW := SetWorkers(w)
		for _, s := range randShapes(r, 12) {
			x := fillF64(r, s.InLen())
			kf := fillF64(r, s.KLen())
			gy := fillF64(r, s.OutLen())
			xu := fillU64(r, s.InLen())
			ku := fillU64(r, s.KLen())
			gyu := fillU64(r, s.OutLen())

			type convOut struct {
				outF, dxF, dkF []float64
				outU, dxU, dkU []uint64
			}
			run := func(naive bool) convOut {
				SetNaive(naive)
				var o convOut
				o.outF = make([]float64, s.OutLen())
				Conv2D(o.outF, x, kf, s)
				o.dxF = make([]float64, s.InLen())
				o.dkF = make([]float64, s.KLen())
				Conv2DGrads(o.dxF, o.dkF, x, kf, gy, s)
				o.outU = make([]uint64, s.OutLen())
				Conv2D(o.outU, xu, ku, s)
				o.dxU = make([]uint64, s.InLen())
				o.dkU = make([]uint64, s.KLen())
				Conv2DGrads(o.dxU, o.dkU, xu, ku, gyu, s)
				return o
			}
			want, got := run(true), run(false)
			checkBitsF := func(name string, g, wv []float64) {
				for i := range wv {
					if g[i] != wv[i] {
						t.Fatalf("workers=%d shape %+v: float64 %s tiled not bit-identical to naive at %d", w, s, name, i)
					}
				}
			}
			checkU := func(name string, g, wv []uint64) {
				for i := range wv {
					if g[i] != wv[i] {
						t.Fatalf("workers=%d shape %+v: ring %s tiled mismatches naive at %d", w, s, name, i)
					}
				}
			}
			checkBitsF("conv", got.outF, want.outF)
			checkBitsF("dx", got.dxF, want.dxF)
			checkBitsF("dk", got.dkF, want.dkF)
			checkU("conv", got.outU, want.outU)
			checkU("dx", got.dxU, want.dxU)
			checkU("dk", got.dkU, want.dkU)
		}
		SetWorkers(prevW)
	}
}
