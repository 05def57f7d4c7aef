package kernel

import (
	"math"
	"testing"

	"pasnet/internal/rng"
)

// randShapes yields a mix of dense, strided, padded, grouped and depthwise
// conv geometries, including degenerate 1×1 and kernel-equals-input cases.
func randShapes(r *rng.RNG, n int) []ConvShape {
	fixed := []ConvShape{
		{N: 1, InC: 1, H: 1, W: 1, OutC: 1, KH: 1, KW: 1, Stride: 1},
		{N: 2, InC: 3, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{N: 1, InC: 4, H: 7, W: 5, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{N: 3, InC: 2, H: 6, W: 6, OutC: 2, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{N: 1, InC: 4, H: 6, W: 6, OutC: 8, KH: 1, KW: 1, Stride: 1},
		{N: 2, InC: 6, H: 5, W: 5, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 2},
		{N: 1, InC: 8, H: 9, W: 9, OutC: 8, KH: 3, KW: 3, Stride: 2, Pad: 1, Groups: 8}, // depthwise
		{N: 2, InC: 5, H: 4, W: 4, OutC: 5, KH: 4, KW: 4, Stride: 1, Pad: 0},            // kernel == input
	}
	shapes := append([]ConvShape(nil), fixed...)
	for len(shapes) < n {
		g := 1
		switch r.Intn(3) {
		case 1:
			g = 2
		case 2:
			g = 4
		}
		icg := 1 + r.Intn(3)
		ocg := 1 + r.Intn(3)
		s := ConvShape{
			N:      1 + r.Intn(3),
			InC:    g * icg,
			OutC:   g * ocg,
			H:      3 + r.Intn(8),
			W:      3 + r.Intn(8),
			KH:     1 + r.Intn(3),
			KW:     1 + r.Intn(3),
			Stride: 1 + r.Intn(2),
			Pad:    r.Intn(2),
			Groups: g,
		}
		if oh, ow := s.OutHW(); oh < 1 || ow < 1 {
			continue
		}
		shapes = append(shapes, s)
	}
	return shapes
}

func fillF64(r *rng.RNG, n int) []float64 {
	out := make([]float64, n)
	r.FillNorm(out, 1)
	return out
}

func fillU64(r *rng.RNG, n int) []uint64 {
	out := make([]uint64, n)
	r.FillUint64(out)
	return out
}

// TestConv2DMatchesNaive checks the lowered conv against the scalar
// reference over random geometries in both element domains, at worker
// counts 1 and 8 (results must be identical — ring exactly, float64 up to
// the identical accumulation order, i.e. exactly for finite inputs).
func TestConv2DMatchesNaive(t *testing.T) {
	r := rng.New(42)
	for _, w := range []int{1, 8} {
		prev := SetWorkers(w)
		for _, s := range randShapes(r, 40) {
			x := fillF64(r, s.InLen())
			k := fillF64(r, s.KLen())
			got := make([]float64, s.OutLen())
			want := make([]float64, s.OutLen())
			Conv2D(got, x, k, s)
			Conv2DNaive(want, x, k, s)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("workers=%d shape %+v: float64 mismatch at %d: %v vs %v", w, s, i, got[i], want[i])
				}
			}
			xu := fillU64(r, s.InLen())
			ku := fillU64(r, s.KLen())
			gotU := make([]uint64, s.OutLen())
			wantU := make([]uint64, s.OutLen())
			Conv2D(gotU, xu, ku, s)
			Conv2DNaive(wantU, xu, ku, s)
			for i := range gotU {
				if gotU[i] != wantU[i] {
					t.Fatalf("workers=%d shape %+v: ring mismatch at %d: %d vs %d", w, s, i, gotU[i], wantU[i])
				}
			}
		}
		SetWorkers(prev)
	}
}

// TestConv2DServedGeometries pins Conv2D ≡ Conv2DNaive where the packed-
// once batched branch actually serves: every demo-backbone conv at flush
// sizes 1/2/4/16, a depthwise block (one output row per group), and output
// channel counts below, at and just past a tileM multiple — at 1, 2 and 4
// workers (which moves calls between the serial-block and batched branches
// and changes how blocks share a chunk's buffers), float64 bit-identical
// and ring exact.
func TestConv2DServedGeometries(t *testing.T) {
	r := rng.New(43)
	for _, n := range []int{1, 2, 4, 16} {
		shapes := append(servedShapes(n),
			ConvShape{N: n, InC: 8, H: 4, W: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 8},
			ConvShape{N: n, InC: 5, H: 5, W: 5, OutC: tileM - 1, KH: 3, KW: 3, Stride: 1, Pad: 1},
			ConvShape{N: n, InC: 5, H: 5, W: 5, OutC: 2 * tileM, KH: 3, KW: 3, Stride: 2, Pad: 1},
			ConvShape{N: n, InC: 4, H: 5, W: 5, OutC: 2*tileM + 2, KH: 3, KW: 3, Stride: 1, Pad: 0, Groups: 2})
		for _, s := range shapes {
			x, k := fillF64(r, s.InLen()), fillF64(r, s.KLen())
			xu, ku := fillU64(r, s.InLen()), fillU64(r, s.KLen())
			want, wantU := make([]float64, s.OutLen()), make([]uint64, s.OutLen())
			Conv2DNaive(want, x, k, s)
			Conv2DNaive(wantU, xu, ku, s)
			for _, w := range []int{1, 2, 4} {
				prev := SetWorkers(w)
				got, gotU := make([]float64, s.OutLen()), make([]uint64, s.OutLen())
				Conv2D(got, x, k, s)
				Conv2D(gotU, xu, ku, s)
				SetWorkers(prev)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d shape %+v: float64 not bit-identical to naive at %d: %v vs %v", w, s, i, got[i], want[i])
					}
					if gotU[i] != wantU[i] {
						t.Fatalf("workers=%d shape %+v: ring mismatch at %d: %d vs %d", w, s, i, gotU[i], wantU[i])
					}
				}
			}
		}
	}
}

// TestConv2DBatchedAllocations pins the batched branch's buffer count: a
// 16-row call packs the kernel once and gives each worker chunk one im2col
// and one B-strip buffer, so allocations scale with workers, not with
// batch rows × groups (the same call used to make two buffers per block:
// 32 dense, 256 for the depthwise shape).
func TestConv2DBatchedAllocations(t *testing.T) {
	const workers = 2
	defer SetWorkers(SetWorkers(workers))
	r := rng.New(44)
	for _, s := range []ConvShape{
		{N: 16, InC: 4, H: 8, W: 8, OutC: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{N: 16, InC: 8, H: 4, W: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 8},
	} {
		x, k, out := fillU64(r, s.InLen()), fillU64(r, s.KLen()), make([]uint64, s.OutLen())
		allocs := testing.AllocsPerRun(20, func() { Conv2D(out, x, k, s) })
		// Per call: the packed panels and the parallelFor bookkeeping; per
		// chunk: im2col buffer, B strip and the strip-packing closure.
		if limit := float64(4 + 4*workers); allocs > limit {
			t.Errorf("shape %+v: %v allocations per call at %d workers, want at most %v (N·groups = %d blocks)",
				s, allocs, workers, limit, s.N*s.NormGroups())
		}
	}
}

// TestConv2DNaiveOption checks that the SetNaive escape hatch reroutes the
// public entry points.
func TestConv2DNaiveOption(t *testing.T) {
	r := rng.New(7)
	s := ConvShape{N: 1, InC: 2, H: 6, W: 6, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := fillU64(r, s.InLen())
	k := fillU64(r, s.KLen())
	lowered := make([]uint64, s.OutLen())
	naive := make([]uint64, s.OutLen())
	Conv2D(lowered, x, k, s)
	prev := SetNaive(true)
	Conv2D(naive, x, k, s)
	SetNaive(prev)
	for i := range lowered {
		if lowered[i] != naive[i] {
			t.Fatalf("SetNaive path diverged at %d", i)
		}
	}
}

// dot is an exact flat inner product in the element domain.
func dot[T Elem](a, b []T) T {
	var s T
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// TestConv2DGradsAdjoint checks the bilinear adjoint identities
// <conv(x,k), gy> == <x, dx> == <k, dk> — exactly over the ring, to
// relative tolerance over float64 — for random geometries including
// grouped and depthwise cases.
func TestConv2DGradsAdjoint(t *testing.T) {
	r := rng.New(43)
	for _, s := range randShapes(r, 25) {
		xu := fillU64(r, s.InLen())
		ku := fillU64(r, s.KLen())
		gyu := fillU64(r, s.OutLen())
		outU := make([]uint64, s.OutLen())
		Conv2D(outU, xu, ku, s)
		dxu := make([]uint64, s.InLen())
		dku := make([]uint64, s.KLen())
		Conv2DGrads(dxu, dku, xu, ku, gyu, s)
		lhs := dot(outU, gyu)
		if got := dot(xu, dxu); got != lhs {
			t.Fatalf("shape %+v: ring <x,dx> = %d, want %d", s, got, lhs)
		}
		if got := dot(ku, dku); got != lhs {
			t.Fatalf("shape %+v: ring <k,dk> = %d, want %d", s, got, lhs)
		}

		x := fillF64(r, s.InLen())
		k := fillF64(r, s.KLen())
		gy := fillF64(r, s.OutLen())
		out := make([]float64, s.OutLen())
		Conv2D(out, x, k, s)
		dx := make([]float64, s.InLen())
		dk := make([]float64, s.KLen())
		Conv2DGrads(dx, dk, x, k, gy, s)
		lhsF := dot(out, gy)
		scale := 1 + math.Abs(lhsF)
		if got := dot(x, dx); math.Abs(got-lhsF) > 1e-8*scale {
			t.Fatalf("shape %+v: float <x,dx> = %v, want %v", s, got, lhsF)
		}
		if got := dot(k, dk); math.Abs(got-lhsF) > 1e-8*scale {
			t.Fatalf("shape %+v: float <k,dk> = %v, want %v", s, got, lhsF)
		}
	}
}

// naiveMatMul is an independent reference for the GEMM variants.
func naiveMatMul[T Elem](dst, a, b []T, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s T
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			dst[i*n+j] = s
		}
	}
}

// TestMatMulVariants checks MatMul / TransA / TransB / TransBAcc against
// the reference over random sizes in both domains.
func TestMatMulVariants(t *testing.T) {
	r := rng.New(44)
	for iter := 0; iter < 30; iter++ {
		m := 1 + r.Intn(17)
		k := 1 + r.Intn(17)
		n := 1 + r.Intn(17)
		a := fillU64(r, m*k)
		b := fillU64(r, k*n)
		want := make([]uint64, m*n)
		naiveMatMul(want, a, b, m, k, n)

		got := make([]uint64, m*n)
		MatMul(got, a, b, m, k, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MatMul mismatch at %d (m=%d k=%d n=%d)", i, m, k, n)
			}
		}

		// aᵀ stored as k×m, bᵀ stored as n×k.
		at := make([]uint64, k*m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at[p*m+i] = a[i*k+p]
			}
		}
		bt := make([]uint64, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		gotA := make([]uint64, m*n)
		MatMulTransA(gotA, at, b, k, m, n)
		gotB := make([]uint64, m*n)
		MatMulTransB(gotB, a, bt, m, k, n)
		acc := fillU64(r, m*n)
		wantAcc := make([]uint64, m*n)
		for i := range acc {
			wantAcc[i] = acc[i] + want[i]
		}
		MatMulTransBAcc(acc, a, bt, m, k, n)
		for i := range want {
			if gotA[i] != want[i] {
				t.Fatalf("MatMulTransA mismatch at %d", i)
			}
			if gotB[i] != want[i] {
				t.Fatalf("MatMulTransB mismatch at %d", i)
			}
			if acc[i] != wantAcc[i] {
				t.Fatalf("MatMulTransBAcc mismatch at %d", i)
			}
		}
	}
}

// TestElementwise checks the chunked parallel elementwise ops across the
// grain boundary, at several worker counts.
func TestElementwise(t *testing.T) {
	r := rng.New(45)
	for _, n := range []int{1, 100, elemGrain - 1, elemGrain * 3, elemGrain*4 + 17} {
		a := fillU64(r, n)
		b := fillU64(r, n)
		for _, w := range []int{1, 5} {
			prev := SetWorkers(w)
			dst := make([]uint64, n)
			Add(dst, a, b)
			for i := range dst {
				if dst[i] != a[i]+b[i] {
					t.Fatalf("Add mismatch n=%d w=%d", n, w)
				}
			}
			Sub(dst, a, b)
			for i := range dst {
				if dst[i] != a[i]-b[i] {
					t.Fatalf("Sub mismatch n=%d w=%d", n, w)
				}
			}
			Mul(dst, a, b)
			for i := range dst {
				if dst[i] != a[i]*b[i] {
					t.Fatalf("Mul mismatch n=%d w=%d", n, w)
				}
			}
			Scale(dst, a, 3)
			for i := range dst {
				if dst[i] != 3*a[i] {
					t.Fatalf("Scale mismatch n=%d w=%d", n, w)
				}
			}
			copy(dst, b)
			Axpy(dst, a, 5)
			for i := range dst {
				if dst[i] != b[i]+5*a[i] {
					t.Fatalf("Axpy mismatch n=%d w=%d", n, w)
				}
			}
			SetWorkers(prev)
		}
	}
}

// TestRangeCoversOnce checks the parallel range partition: every index is
// visited exactly once whatever the worker count.
func TestRangeCoversOnce(t *testing.T) {
	for _, w := range []int{1, 3, 16} {
		prev := SetWorkers(w)
		for _, n := range []int{0, 1, elemGrain, elemGrain*2 + 3, elemGrain * 7} {
			counts := make([]int32, n)
			Range(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i]++
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, c)
				}
			}
		}
		SetWorkers(prev)
	}
}

// TestSetWorkers checks the override round-trips and that n<=0 resets to a
// positive machine default.
func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	if got := SetWorkers(0); got != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", got)
	}
	if Workers() < 1 {
		t.Fatalf("reset Workers() = %d, want >= 1", Workers())
	}
	SetWorkers(prev)
}
