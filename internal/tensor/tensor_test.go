package tensor

import (
	"math"
	"strings"
	"testing"

	"pasnet/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Dim(0) != 2 || x.Dim(2) != 4 {
		t.Fatalf("bad tensor dims: %v len %d", x.Shape, x.Len())
	}
}

func TestAtSet(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 1, 2)
	if x.At(1, 2) != 5 || x.Data[5] != 5 {
		t.Fatal("At/Set row-major layout broken")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("reshape must alias data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched reshape must panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIndependent(t *testing.T) {
	x := New(3)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 7
	if x.Data[0] != 1 {
		t.Fatal("clone aliases data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[1] != 10 {
		t.Errorf("Mul = %v", got)
	}
	if got := Scale(a, 2).Data; got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	c := a.Clone()
	AxpyInto(c, b, 0.5)
	if c.Data[0] != 3 {
		t.Errorf("Axpy = %v", c.Data)
	}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if a.Sum() != 6 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if b.MaxAbs() != 6 {
		t.Errorf("MaxAbs = %v", b.MaxAbs())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2), New(3))
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", got.Data, want)
		}
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	r := rng.New(4)
	a := New(5, 7).RandNorm(r, 1)
	b := New(7, 6).RandNorm(r, 1)
	base := MatMul(a, b)
	// a @ b == a @ (b^T)^T via MatMulTransB with bT.
	bT := New(6, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 6; j++ {
			bT.Data[j*7+i] = b.Data[i*6+j]
		}
	}
	viaB := MatMulTransB(a, bT)
	// a @ b == (a^T)^T @ b via MatMulTransA with aT.
	aT := New(7, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			aT.Data[j*5+i] = a.Data[i*7+j]
		}
	}
	viaA := MatMulTransA(aT, b)
	for i := range base.Data {
		if !almostEqual(base.Data[i], viaB.Data[i], 1e-9) || !almostEqual(base.Data[i], viaA.Data[i], 1e-9) {
			t.Fatalf("transpose variants disagree at %d: %v %v %v", i, base.Data[i], viaB.Data[i], viaA.Data[i])
		}
	}
}

// naiveConv is a direct convolution used as the reference implementation.
func naiveConv(x, k *Tensor, s ConvSpec) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, w)
	out := New(n, s.OutC, oh, ow)
	for b := 0; b < n; b++ {
		for oc := 0; oc < s.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := 0.0
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.Stride + ky - s.Pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.Stride + kx - s.Pad
								if ix < 0 || ix >= w {
									continue
								}
								sum += x.At(b, ic, iy, ix) * k.At(oc, ic, ky, kx)
							}
						}
					}
					out.Set(sum, b, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	r := rng.New(7)
	cases := []ConvSpec{
		{InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, OutC: 5, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 3, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 1, OutC: 1, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, OutC: 3, KH: 7, KW: 7, Stride: 2, Pad: 3},
	}
	for _, s := range cases {
		x := New(2, s.InC, 8, 8).RandNorm(r, 1)
		k := New(s.OutC, s.InC, s.KH, s.KW).RandNorm(r, 1)
		got := Conv2D(x, k, s)
		want := naiveConv(x, k, s)
		if !SameShape(got, want) {
			t.Fatalf("spec %+v: shape %v want %v", s, got.Shape, want.Shape)
		}
		for i := range got.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("spec %+v: mismatch at %d: %v vs %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestConv2DGradsNumeric checks analytic gradients against central finite
// differences on a small problem.
func TestConv2DGradsNumeric(t *testing.T) {
	r := rng.New(8)
	s := ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1}
	x := New(1, 2, 5, 5).RandNorm(r, 1)
	k := New(3, 2, 3, 3).RandNorm(r, 1)
	gy := New(1, 3, 3, 3).RandNorm(r, 1)

	loss := func() float64 { return Dot(Conv2D(x, k, s), gy) }
	dx, dk := Conv2DGrads(x, k, gy, s)

	const eps = 1e-5
	for _, probe := range []struct {
		data []float64
		grad []float64
		name string
	}{{x.Data, dx.Data, "dx"}, {k.Data, dk.Data, "dk"}} {
		for _, i := range []int{0, 3, len(probe.data) / 2, len(probe.data) - 1} {
			orig := probe.data[i]
			probe.data[i] = orig + eps
			lp := loss()
			probe.data[i] = orig - eps
			lm := loss()
			probe.data[i] = orig
			num := (lp - lm) / (2 * eps)
			if !almostEqual(num, probe.grad[i], 1e-4*(1+math.Abs(num))) {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", probe.name, i, num, probe.grad[i])
			}
		}
	}
}

func TestConvGradAdjoint(t *testing.T) {
	// <Conv2D(x,k), gy> == <x, dx> == <k, dk> — the bilinear adjoint
	// property of the kernel-lowered conv (exhaustively property-tested in
	// internal/kernel; this is the tensor-API-level smoke check).
	r := rng.New(9)
	s := ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := New(1, 2, 6, 6).RandNorm(r, 1)
	k := New(3, 2, 3, 3).RandNorm(r, 1)
	y := Conv2D(x, k, s)
	gy := New(y.Shape...).RandNorm(r, 1)
	dx, dk := Conv2DGrads(x, k, gy, s)
	lhs := Dot(y, gy)
	if got := Dot(x, dx); !almostEqual(got, lhs, 1e-9*math.Abs(lhs)+1e-9) {
		t.Fatalf("<x,dx> = %v, want %v", got, lhs)
	}
	if got := Dot(k, dk); !almostEqual(got, lhs, 1e-9*math.Abs(lhs)+1e-9) {
		t.Fatalf("<k,dk> = %v, want %v", got, lhs)
	}
}

func TestMaxPool(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2D(x, 2, 2, 2)
	want := []float64{6, 8, 14, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("MaxPool = %v, want %v", out.Data, want)
		}
	}
	gy := FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := MaxPool2DGrad(gy, arg, x.Shape)
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 0, 0) != 0 {
		t.Fatal("MaxPool grad scatters to wrong positions")
	}
}

func TestAvgPool(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := AvgPool2D(x, 2, 2, 2)
	want := []float64{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("AvgPool = %v, want %v", out.Data, want)
		}
	}
	gy := FromSlice([]float64{4, 4, 4, 4}, 1, 1, 2, 2)
	dx := AvgPool2DGrad(gy, 2, 2, 2, x.Shape)
	for _, v := range dx.Data {
		if v != 1 {
			t.Fatalf("AvgPool grad = %v, want all ones", dx.Data)
		}
	}
}

// A 2×2/2 pool over a 1×1 map has no valid window, yet Go's truncating
// (1-2)/2+1 reports one output; both pools must name the problem instead
// of indexing past the map.
func TestPoolWindowLargerThanMapPanics(t *testing.T) {
	x := New(1, 256, 1, 1)
	for name, pool := range map[string]func(){
		"max": func() { MaxPool2D(x, 2, 2, 2) },
		"avg": func() { AvgPool2D(x, 2, 2, 2) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "window 2x2 exceeds 1x1 feature map") {
					t.Errorf("%s pool: panic %q does not describe the window/map mismatch", name, msg)
				}
			}()
			pool()
		}()
	}
}

func TestPoolGradNumeric(t *testing.T) {
	r := rng.New(10)
	x := New(1, 2, 6, 6).RandNorm(r, 1)
	gy := New(1, 2, 3, 3).RandNorm(r, 1)
	// AvgPool numeric gradient check.
	loss := func() float64 { return Dot(AvgPool2D(x, 2, 2, 2), gy) }
	dx := AvgPool2DGrad(gy, 2, 2, 2, x.Shape)
	const eps = 1e-6
	for _, i := range []int{0, 10, 35, 71} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if !almostEqual(num, dx.Data[i], 1e-5) {
			t.Fatalf("avg pool grad[%d]: numeric %v vs analytic %v", i, num, dx.Data[i])
		}
	}
}

func TestConvSpecOutSize(t *testing.T) {
	s := ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, Stride: 2, Pad: 1}
	oh, ow := s.OutSize(224, 224)
	if oh != 112 || ow != 112 {
		t.Fatalf("OutSize(224) = %d,%d", oh, ow)
	}
	s = ConvSpec{InC: 1, OutC: 1, KH: 7, KW: 7, Stride: 2, Pad: 3}
	oh, _ = s.OutSize(224, 224)
	if oh != 112 {
		t.Fatalf("7x7/2 OutSize = %d", oh)
	}
}
