package kernel

import (
	"math"
	"runtime"
	"sync"
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

// Sentinels fill every destination before a Conv2D call, so an output
// element the lowering fails to store shows up as a mismatch instead of
// matching a zeroed buffer.
const (
	sentinelF64 float64 = -7.25e30
	sentinelU64 uint64  = 0xa5a5a5a5a5a5a5a5
)

func filled[T Elem](n int, v T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// raggedShapes are batch-n geometries whose N·OH·OW is not a multiple of
// tileM and whose OutC/G is not a multiple of tileN, so the last row panel
// and the last channel strip of each group store a partial tile; the last
// has every output position in padding (an all-zero output).
func raggedShapes(n int) []ConvShape {
	return []ConvShape{
		{N: n, InC: 3, H: 7, W: 7, OutC: 7, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{N: n, InC: 6, H: 5, W: 5, OutC: 10, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 2},
		{N: n, InC: 3, H: 1, W: 1, OutC: 5, KH: 1, KW: 1, Stride: 3, Pad: 2},
	}
}

// TestConv2DMatchesNaive checks the lowered conv against the scalar
// reference over random geometries and the ragged-tile ones in both
// element domains, at worker counts 1 and 8 (results must be identical —
// ring exactly, float64 up to the identical accumulation order, i.e.
// exactly for finite inputs).
func TestConv2DMatchesNaive(t *testing.T) {
	r := rng.New(42)
	for _, w := range []int{1, 8} {
		prev := SetWorkers(w)
		for _, s := range append(randShapes(r, 40), raggedShapes(2)...) {
			x := fillF64(r, s.InLen())
			k := fillF64(r, s.KLen())
			got := filled(s.OutLen(), sentinelF64)
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
			gotU := filled(s.OutLen(), sentinelU64)
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

// TestConv2DServedGeometries pins Conv2D ≡ Conv2DNaive on the shapes a
// served flush runs: every demo-backbone conv at flush sizes 1/2/4/16, a
// depthwise block (one output channel per group), output channel counts
// below, at and just past a tileM multiple, and the ragged-tile shapes —
// at 1, 2 and 4 workers (which moves the row-panel chunk boundaries and
// how many panels share a chunk's buffer), float64 bit-identical and ring
// exact.
func TestConv2DServedGeometries(t *testing.T) {
	r := rng.New(43)
	for _, n := range []int{1, 2, 4, 16} {
		shapes := append(servedShapes(n),
			ConvShape{N: n, InC: 8, H: 4, W: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 8},
			ConvShape{N: n, InC: 5, H: 5, W: 5, OutC: tileM - 1, KH: 3, KW: 3, Stride: 1, Pad: 1},
			ConvShape{N: n, InC: 5, H: 5, W: 5, OutC: 2 * tileM, KH: 3, KW: 3, Stride: 2, Pad: 1},
			ConvShape{N: n, InC: 4, H: 5, W: 5, OutC: 2*tileM + 2, KH: 3, KW: 3, Stride: 1, Pad: 0, Groups: 2})
		for _, s := range append(shapes, raggedShapes(n)...) {
			x, k := fillF64(r, s.InLen()), fillF64(r, s.KLen())
			xu, ku := fillU64(r, s.InLen()), fillU64(r, s.KLen())
			want, wantU := make([]float64, s.OutLen()), make([]uint64, s.OutLen())
			Conv2DNaive(want, x, k, s)
			Conv2DNaive(wantU, xu, ku, s)
			for _, w := range []int{1, 2, 4} {
				prev := SetWorkers(w)
				got, gotU := filled(s.OutLen(), sentinelF64), filled(s.OutLen(), sentinelU64)
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

// TestConv2DBatchedAllocations pins Conv2D's buffer inventory at the
// served flush sizes. A one-shot call builds a plan — its class table, the
// class tap offsets and the packed Kᵀ strips — and runs it: the
// parallelFor closure, once the call splits its WaitGroup, and per worker
// chunk one A panel when the panel pool holds none. Allocations therefore
// scale with workers, not with
// batch rows × groups (an im2col lowering with per-block buffers made 32
// of them for the dense shape at N=16 and 256 for the depthwise one) nor
// with the class count (4 classes for the dense shape, 9 per group for the
// depthwise one). Run on a prebuilt plan allocates only the closure,
// WaitGroup and at most those panels — never a weight-sized buffer.
func TestConv2DBatchedAllocations(t *testing.T) {
	const workers = 2
	defer SetWorkers(SetWorkers(workers))
	r := rng.New(44)
	for _, n := range []int{1, 2, 16} {
		for _, s := range []ConvShape{
			{N: n, InC: 4, H: 8, W: 8, OutC: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
			{N: n, InC: 8, H: 4, W: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 8},
		} {
			x, k, out := fillU64(r, s.InLen()), fillU64(r, s.KLen()), make([]uint64, s.OutLen())
			allocs := testing.AllocsPerRun(20, func() { Conv2D(out, x, k, s) })
			if limit := float64(5 + workers); allocs > limit {
				t.Errorf("shape %+v: %v allocations per call at %d workers, want at most %v (N·groups = %d blocks)",
					s, allocs, workers, limit, s.N*s.NormGroups())
			}
			p := NewConvPlan(k, s)
			allocs = testing.AllocsPerRun(20, func() { p.Run(out, x, n) })
			if limit := float64(2 + workers); allocs > limit {
				t.Errorf("shape %+v: %v allocations per Run on a prebuilt plan, want at most %v", s, allocs, limit)
			}
			// The closure and WaitGroup are a few words; the panels are
			// tileM·maxK words per chunk. The bound sits below one copy of
			// the packed strips, so a Run that re-packs the kernel fails.
			limit := uint64(workers*tileM*p.maxK*8 + 512)
			if kb := uint64(len(p.kp) * 8); limit >= kb {
				t.Fatalf("shape %+v: panel bound %d B does not sit below the %d B of packed strips", s, limit, kb)
			}
			if got := runBytes(func() { p.Run(out, x, n) }); got > limit {
				t.Errorf("shape %+v: Run on a prebuilt plan allocates %d B per call, want at most %d (panels only)", s, got, limit)
			}
		}
	}
}

// runBytes returns the heap bytes one call of fn allocates, averaged over
// many calls.
func runBytes(fn func()) uint64 {
	const runs = 50
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// planShapes are the geometries TestConvPlanMatchesNaive packs once: the
// served ones, the ragged-tile ones, depthwise, stride 2, pad 0 (one class),
// kernels wider than the map (a 3×3 on 1×1, a 5×5 pad 2 on 2×2, a 3×3 on a
// 1×W strip) and H ≠ W maps. N is left to Run.
func planShapes() []ConvShape {
	shapes := append(servedShapes(0), raggedShapes(0)...)
	return append(shapes,
		ConvShape{InC: 8, H: 4, W: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 8},
		ConvShape{InC: 6, H: 9, W: 9, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1, Groups: 6},
		ConvShape{InC: 3, H: 7, W: 7, OutC: 5, KH: 3, KW: 3, Stride: 2, Pad: 1},
		ConvShape{InC: 4, H: 6, W: 6, OutC: 9, KH: 3, KW: 3, Stride: 1, Pad: 0},
		ConvShape{InC: 4, H: 5, W: 7, OutC: 6, KH: 2, KW: 3, Stride: 2, Pad: 0, Groups: 2},
		ConvShape{InC: 5, H: 1, W: 1, OutC: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
		ConvShape{InC: 3, H: 2, W: 2, OutC: 5, KH: 5, KW: 5, Stride: 1, Pad: 2},
		ConvShape{InC: 3, H: 1, W: 6, OutC: 5, KH: 3, KW: 3, Stride: 1, Pad: 1},
		ConvShape{InC: 2, H: 5, W: 3, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1},
		ConvShape{InC: 3, H: 6, W: 11, OutC: 4, KH: 5, KW: 3, Stride: 2, Pad: 2},
	)
}

// TestConvPlanMatchesNaive builds one plan per shape and runs it at batch
// sizes 1, 2 and 16 and at 1 and 2 workers against Conv2DNaive over
// sentinel-filled outputs: ring results exactly equal, float64
// bit-identical. It also pins the class count: one for a single output
// position (a 3×3 on a 1×1 map) and at pad 0 (no window is ever clipped),
// at most 9 on the served shapes, and class areas that sum to OH·OW.
func TestConvPlanMatchesNaive(t *testing.T) {
	r := rng.New(46)
	for si, s := range planShapes() {
		k, ku := fillF64(r, s.KLen()), fillU64(r, s.KLen())
		p, pu := NewConvPlan(k, s), NewConvPlan(ku, s)
		oh, ow := s.OutHW()
		area := 0
		for _, c := range pu.classes {
			area += c.h * c.w
		}
		if area != oh*ow {
			t.Fatalf("shape %+v: classes cover %d output positions, want %d", s, area, oh*ow)
		}
		if nc := len(pu.classes); (oh*ow == 1 || s.Pad == 0) && nc != 1 {
			t.Errorf("shape %+v: %d classes, want 1", s, nc)
		} else if si < len(servedShapes(0)) && nc > 9 {
			t.Errorf("served shape %+v: %d classes, want at most 9", s, nc)
		}
		for _, n := range []int{1, 2, 16} {
			sn := s
			sn.N = n
			x, xu := fillF64(r, sn.InLen()), fillU64(r, sn.InLen())
			want, wantU := make([]float64, sn.OutLen()), make([]uint64, sn.OutLen())
			Conv2DNaive(want, x, k, sn)
			Conv2DNaive(wantU, xu, ku, sn)
			for _, w := range []int{1, 2} {
				prev := SetWorkers(w)
				got, gotU := filled(sn.OutLen(), sentinelF64), filled(sn.OutLen(), sentinelU64)
				p.Run(got, x, n)
				pu.Run(gotU, xu, n)
				SetWorkers(prev)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("N=%d workers=%d shape %+v: float64 not bit-identical to naive at %d: %v vs %v", n, w, s, i, got[i], want[i])
					}
					if gotU[i] != wantU[i] {
						t.Fatalf("N=%d workers=%d shape %+v: ring mismatch at %d: %d vs %d", n, w, s, i, gotU[i], wantU[i])
					}
				}
			}
		}
	}
}

// TestConvPlanConcurrentRuns runs one plan from several goroutines at once,
// each at its own batch size (a plan is immutable, so concurrent Runs may
// share it); every result must equal the naive conv.
func TestConvPlanConcurrentRuns(t *testing.T) {
	s := ConvShape{InC: 4, H: 6, W: 6, OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	k := fillU64(rng.New(47), s.KLen())
	p := NewConvPlan(k, s)
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sn := s
			sn.N = n
			x := fillU64(rng.New(uint64(n)), sn.InLen())
			want := make([]uint64, sn.OutLen())
			Conv2DNaive(want, x, k, sn)
			for i := 0; i < 20; i++ {
				got := filled(sn.OutLen(), sentinelU64)
				p.Run(got, x, n)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("N=%d run %d: mismatch at %d", n, i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
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
