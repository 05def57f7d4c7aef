package nn

import (
	"math"
	"testing"

	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// gradCheck verifies analytic parameter and input gradients of a layer
// against central finite differences for the scalar loss <out, probe>.
func gradCheck(t *testing.T, l Layer, x *tensor.Tensor, seed uint64, tol float64) {
	t.Helper()
	r := rng.New(seed)
	out := l.Forward(x, true)
	probe := tensor.New(out.Shape...).RandNorm(r, 1)
	ZeroGrads(l.Params())
	dx := l.Backward(probe)

	loss := func() float64 { return tensor.Dot(l.Forward(x, true), probe) }
	const eps = 1e-5
	check := func(name string, data, grad []float64, indices []int) {
		for _, i := range indices {
			orig := data[i]
			data[i] = orig + eps
			lp := loss()
			data[i] = orig - eps
			lm := loss()
			data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", name, i, num, grad[i])
			}
		}
	}
	probeIdx := func(n int) []int {
		if n == 0 {
			return nil
		}
		idx := []int{0, n - 1}
		if n > 2 {
			idx = append(idx, n/2)
		}
		return idx
	}
	check("dx", x.Data, dx.Data, probeIdx(x.Len()))
	for _, p := range l.Params() {
		check(p.Name, p.W.Data, p.G.Data, probeIdx(p.W.Len()))
	}
}

func TestConv2DGradCheck(t *testing.T) {
	r := rng.New(1)
	spec := tensor.ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	l := NewConv2D("c", spec, true, r)
	x := tensor.New(2, 2, 5, 5).RandNorm(r, 1)
	gradCheck(t, l, x, 2, 1e-4)
}

func TestLinearGradCheck(t *testing.T) {
	r := rng.New(3)
	l := NewLinear("fc", 7, 4, r)
	x := tensor.New(3, 7).RandNorm(r, 1)
	gradCheck(t, l, x, 4, 1e-4)
}

func TestReLUGradCheck(t *testing.T) {
	r := rng.New(5)
	l := NewReLU()
	x := tensor.New(4, 10).RandNorm(r, 1)
	// Keep values away from the kink for finite differences.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 1e-3 {
			x.Data[i] = 0.5
		}
	}
	gradCheck(t, l, x, 6, 1e-4)
}

func TestX2ActGradCheck(t *testing.T) {
	r := rng.New(7)
	l := NewX2Act("act", 64)
	x := tensor.New(2, 64).RandNorm(r, 1)
	gradCheck(t, l, x, 8, 1e-4)
}

func TestX2ActSTPAIIsNearIdentity(t *testing.T) {
	l := NewX2Act("act", 1024)
	r := rng.New(9)
	x := tensor.New(1, 1024).RandNorm(r, 1)
	y := l.Forward(x, false)
	// STPAI: w2=1, w1 scaled by c/√Nx — output should track input closely.
	maxDev := 0.0
	for i := range x.Data {
		if d := math.Abs(y.Data[i] - x.Data[i]); d > maxDev {
			maxDev = d
		}
	}
	if maxDev > 0.2 {
		t.Fatalf("STPAI output deviates %.3f from identity", maxDev)
	}
}

// TestX2ActGradientBalance verifies the paper's Sec. III-A claim: the
// c/√Nx scaling keeps ∂L/∂w1 at a magnitude comparable to ordinary weight
// gradients, independent of feature-map size.
func TestX2ActGradientBalance(t *testing.T) {
	r := rng.New(10)
	norms := make([]float64, 0, 2)
	for _, nx := range []int{64, 4096} {
		l := NewX2Act("act", nx)
		x := tensor.New(1, nx).RandNorm(r, 1)
		out := l.Forward(x, true)
		gy := tensor.New(out.Shape...)
		for i := range gy.Data {
			gy.Data[i] = 1 / float64(nx) // mean-loss style gradient
		}
		ZeroGrads(l.Params())
		l.Backward(gy)
		norms = append(norms, math.Abs(l.W1.G.Data[0]))
	}
	ratio := norms[0] / norms[1]
	if ratio < 0.05 || ratio > 20 {
		t.Fatalf("w1 gradient magnitude varies too much with Nx: %v", norms)
	}
}

func TestMaxPoolGradCheck(t *testing.T) {
	r := rng.New(11)
	l := NewMaxPool(2, 2, 2)
	x := tensor.New(1, 2, 4, 4).RandNorm(r, 1)
	gradCheck(t, l, x, 12, 1e-4)
}

func TestAvgPoolGradCheck(t *testing.T) {
	r := rng.New(13)
	l := NewAvgPool(2, 2, 2)
	x := tensor.New(1, 2, 4, 4).RandNorm(r, 1)
	gradCheck(t, l, x, 14, 1e-4)
}

func TestGlobalAvgPoolGradCheck(t *testing.T) {
	r := rng.New(15)
	l := NewGlobalAvgPool()
	x := tensor.New(2, 3, 4, 4).RandNorm(r, 1)
	gradCheck(t, l, x, 16, 1e-4)
}

func TestBatchNormGradCheck(t *testing.T) {
	r := rng.New(17)
	l := NewBatchNorm2D("bn", 3)
	x := tensor.New(4, 3, 3, 3).RandNorm(r, 2)
	gradCheck(t, l, x, 18, 1e-3)
}

func TestBatchNormNormalizes(t *testing.T) {
	r := rng.New(19)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 4, 4).RandNorm(r, 3)
	for i := range x.Data {
		x.Data[i] += 5 // offset mean
	}
	y := bn.Forward(x, true)
	// Per-channel output mean ~0, var ~1.
	n, c, hw := 8, 2, 16
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				sum += y.Data[base+i]
			}
		}
		mean := sum / float64(n*hw)
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				d := y.Data[base+i] - mean
				sq += d * d
			}
		}
		v := sq / float64(n*hw)
		if math.Abs(mean) > 1e-6 || math.Abs(v-1) > 1e-3 {
			t.Fatalf("channel %d: mean %v var %v", ch, mean, v)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	r := rng.New(21)
	bn := NewBatchNorm2D("bn", 1)
	// Train on several batches to settle running stats.
	for i := 0; i < 50; i++ {
		x := tensor.New(8, 1, 2, 2).RandNorm(r, 2)
		for j := range x.Data {
			x.Data[j] += 3
		}
		bn.Forward(x, true)
	}
	if math.Abs(bn.RunMean[0]-3) > 0.5 {
		t.Fatalf("running mean %v, want ~3", bn.RunMean[0])
	}
	// Eval must not depend on batch composition.
	x := tensor.New(1, 1, 2, 2)
	x.Fill(3)
	y := bn.Forward(x, false)
	for _, v := range y.Data {
		if math.Abs(v) > 0.5 {
			t.Fatalf("eval output %v, want ~0 for input at running mean", v)
		}
	}
}

func TestBatchNormFold(t *testing.T) {
	r := rng.New(23)
	spec := tensor.ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2D("c", spec, false, r)
	bn := NewBatchNorm2D("bn", 3)
	// Shift running stats away from defaults.
	for i := 0; i < 20; i++ {
		x := tensor.New(4, 2, 5, 5).RandNorm(r, 1)
		bn.Forward(conv.Forward(x, false), true)
	}
	x := tensor.New(1, 2, 5, 5).RandNorm(r, 1)
	want := bn.Forward(conv.Forward(x, false), false)

	foldedW, foldedB := bn.FoldInto(conv.Weight.W, nil)
	folded := &Conv2D{Spec: spec, Weight: &Param{W: foldedW, G: tensor.New(foldedW.Shape...)}}
	got := folded.Forward(x, false)
	// Add folded bias manually.
	oc, hw := 3, 25
	for ch := 0; ch < oc; ch++ {
		for i := 0; i < hw; i++ {
			got.Data[ch*hw+i] += foldedB[ch]
		}
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("fold mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestResidualGradCheck(t *testing.T) {
	r := rng.New(25)
	spec := tensor.ConvSpec{InC: 2, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	body := NewSequential(NewConv2D("c1", spec, true, r), NewX2Act("a1", 32))
	block := NewResidual(body, nil, NewX2Act("post", 32))
	x := tensor.New(1, 2, 4, 4).RandNorm(r, 1)
	gradCheck(t, block, x, 26, 1e-3)
}

func TestResidualWithProjectionShortcut(t *testing.T) {
	r := rng.New(27)
	spec := tensor.ConvSpec{InC: 2, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}
	proj := tensor.ConvSpec{InC: 2, OutC: 4, KH: 1, KW: 1, Stride: 2, Pad: 0}
	block := NewResidual(
		NewSequential(NewConv2D("c1", spec, true, r)),
		NewConv2D("sc", proj, true, r),
		nil,
	)
	x := tensor.New(1, 2, 6, 6).RandNorm(r, 1)
	y := block.Forward(x, true)
	if y.Shape[1] != 4 || y.Shape[2] != 3 {
		t.Fatalf("projection residual output shape %v", y.Shape)
	}
	gradCheck(t, block, x, 28, 1e-3)
}

func TestSoftmaxCEGradCheck(t *testing.T) {
	r := rng.New(29)
	logits := tensor.New(4, 5).RandNorm(r, 1)
	labels := []int{1, 0, 4, 2}
	_, grad := SoftmaxCE(logits, labels)
	const eps = 1e-6
	for _, i := range []int{0, 7, 19} {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCE(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCE(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-5 {
			t.Fatalf("CE grad[%d]: numeric %v vs analytic %v", i, num, grad.Data[i])
		}
	}
}

func TestSoftmaxCELossValue(t *testing.T) {
	// Uniform logits → loss = ln(K).
	logits := tensor.New(2, 4)
	loss, _ := SoftmaxCE(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform CE loss %v, want ln4", loss)
	}
}

func TestAccuracyAndTopK(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 5, 2, 0,
		9, 1, 2, 3,
		0, 1, 2, 3,
	}, 3, 4)
	labels := []int{1, 0, 0}
	if a := Accuracy(logits, labels); math.Abs(a-2.0/3) > 1e-12 {
		t.Fatalf("accuracy %v", a)
	}
	if k := TopK(logits, labels, 4); k != 1 {
		t.Fatalf("top-4 should be 1, got %v", k)
	}
	if k := TopK(logits, []int{1, 0, 2}, 2); math.Abs(k-1) > 1e-12 {
		t.Fatalf("top-2 %v", k)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - 3||² with momentum SGD.
	p := NewParam("w", 4)
	opt := NewSGD(0.1, 0.9, 0)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		for j := range p.W.Data {
			p.G.Data[j] = 2 * (p.W.Data[j] - 3)
		}
		opt.Step([]*Param{p})
	}
	for _, v := range p.W.Data {
		if math.Abs(v-3) > 1e-6 {
			t.Fatalf("SGD did not converge: %v", p.W.Data)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("w", 4)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		for j := range p.W.Data {
			p.G.Data[j] = 2 * (p.W.Data[j] + 1.5)
		}
		opt.Step([]*Param{p})
	}
	for _, v := range p.W.Data {
		if math.Abs(v+1.5) > 1e-3 {
			t.Fatalf("Adam did not converge: %v", p.W.Data)
		}
	}
}

func TestWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", 1)
	p.W.Data[0] = 1
	opt := NewSGD(0.1, 0, 0.5)
	p.ZeroGrad()
	opt.Step([]*Param{p})
	if p.W.Data[0] >= 1 {
		t.Fatal("weight decay must shrink weights with zero gradient")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	var s float64
	for _, g := range p.G.Data {
		s += g * g
	}
	if math.Abs(math.Sqrt(s)-1) > 1e-9 {
		t.Fatalf("post-clip norm %v", math.Sqrt(s))
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	r := rng.New(31)
	l := NewFlatten()
	x := tensor.New(2, 3, 4, 4).RandNorm(r, 1)
	y := l.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 48 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := l.Backward(y)
	if !tensor.SameShape(dx, x) {
		t.Fatalf("flatten backward shape %v", dx.Shape)
	}
}

func TestFlatParamHelpers(t *testing.T) {
	r := rng.New(33)
	l := NewLinear("fc", 3, 2, r)
	ps := l.Params()
	flat := GetFlat(ps, nil)
	if len(flat) != 8 {
		t.Fatalf("flat length %d", len(flat))
	}
	// Round trip.
	flat[0] = 42
	SetFlat(ps, flat)
	if l.Weight.W.Data[0] != 42 {
		t.Fatal("SetFlat did not write through")
	}
	// Axpy.
	dir := make([]float64, 8)
	dir[0] = 1
	AxpyFlat(ps, dir, 0.5)
	if l.Weight.W.Data[0] != 42.5 {
		t.Fatal("AxpyFlat wrong")
	}
	// Grad flattening.
	l.Weight.G.Data[0] = 7
	g := GetFlatGrad(ps, nil)
	if g[0] != 7 {
		t.Fatal("GetFlatGrad wrong")
	}
}

func TestParamFilters(t *testing.T) {
	w := NewParam("w", 1)
	a := NewParam("alpha", 1)
	a.Arch = true
	ps := []*Param{w, a}
	if len(WeightParams(ps)) != 1 || len(ArchParams(ps)) != 1 {
		t.Fatal("param filters wrong")
	}
}

// TestSmallCNNTrains is an end-to-end smoke test: a tiny conv net must fit
// a linearly-separable-ish synthetic problem far above chance.
func TestSmallCNNTrains(t *testing.T) {
	r := rng.New(35)
	spec := tensor.ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewNetwork(NewSequential(
		NewConv2D("c1", spec, true, r),
		NewReLU(),
		NewGlobalAvgPool(),
		NewLinear("fc", 4, 2, r),
	))
	opt := NewSGD(0.1, 0.9, 1e-4)
	// Class 0: bright center; class 1: bright border.
	makeBatch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 6, 6)
		labels := make([]int, n)
		for b := 0; b < n; b++ {
			labels[b] = r.Intn(2)
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					border := i == 0 || j == 0 || i == 5 || j == 5
					v := r.Norm() * 0.1
					if (labels[b] == 0 && !border) || (labels[b] == 1 && border) {
						v += 1
					}
					x.Set(v, b, 0, i, j)
				}
			}
		}
		return x, labels
	}
	for epoch := 0; epoch < 60; epoch++ {
		x, labels := makeBatch(16)
		out := net.Forward(x, true)
		_, grad := SoftmaxCE(out, labels)
		net.ZeroGrad()
		net.Backward(grad)
		opt.Step(net.Weights())
	}
	x, labels := makeBatch(64)
	acc := Accuracy(net.Forward(x, false), labels)
	if acc < 0.9 {
		t.Fatalf("tiny CNN accuracy %.2f, want >= 0.9", acc)
	}
}

// TestRecordReLUBounds pins the bound recording the 2PC comparison sizes
// itself to: ReLUs walks sequences and every residual branch in forward
// order; RecordReLUBounds sets each layer's Bound to the largest |input|
// of the eval-mode passes it runs — resetting what an earlier call
// recorded — and leaves train-mode passes unrecorded; a network without a
// ReLU runs no batch.
func TestRecordReLUBounds(t *testing.T) {
	r := rng.New(3)
	relus := []*ReLU{NewReLU(), NewReLU(), NewReLU(), NewReLU()}
	lin := func(name string) *Linear { return NewLinear(name, 4, 4, r) }
	net := NewNetwork(NewSequential(
		lin("l0"), relus[0],
		NewResidual(NewSequential(lin("b"), relus[1]), NewSequential(relus[2]), relus[3]),
	))
	got := net.ReLUs()
	if len(got) != len(relus) {
		t.Fatalf("ReLUs found %d layers, want %d", len(got), len(relus))
	}
	for i := range got {
		if got[i] != relus[i] {
			t.Fatalf("ReLUs()[%d] is not the %d-th ReLU in forward order", i, i)
		}
	}

	batches := []*tensor.Tensor{tensor.New(3, 4).RandNorm(r, 1), tensor.New(2, 4).RandNorm(r, 5)}
	// Bounds computed by hand, one eval-mode layer at a time.
	want := make([]float64, len(relus))
	maxAbs := func(i int, x *tensor.Tensor) {
		for _, v := range x.Data {
			want[i] = math.Max(want[i], math.Abs(v))
		}
	}
	res := net.Root.(*Sequential).Layers[2].(*Residual)
	for _, x := range batches {
		h := net.Root.(*Sequential).Layers[0].Forward(x, false)
		maxAbs(0, h)
		h = relus[0].Forward(h, false)
		b := res.Body.(*Sequential).Layers[0].Forward(h, false)
		maxAbs(1, b)
		maxAbs(2, h)
		sum := tensor.Add(relus[1].Forward(b, false), h)
		maxAbs(3, sum)
	}
	// A stale bound and a train-mode pass must not leak into the record.
	relus[0].Bound = 1e9
	net.Forward(tensor.New(2, 4).RandNorm(r, 100), true)
	n := net.RecordReLUBounds(func(i int) *tensor.Tensor {
		if i < len(batches) {
			return batches[i]
		}
		return nil
	})
	if n != len(relus) {
		t.Fatalf("RecordReLUBounds reported %d layers, want %d", n, len(relus))
	}
	for i, l := range relus {
		if l.Bound != want[i] {
			t.Errorf("ReLU %d bound %v, want %v", i, l.Bound, want[i])
		}
	}
	net.Forward(tensor.New(2, 4).RandNorm(r, 100), false)
	if relus[0].Bound != want[0] {
		t.Errorf("an eval pass after recording moved the bound to %v", relus[0].Bound)
	}

	noReLU := NewNetwork(NewSequential(lin("x")))
	if n := noReLU.RecordReLUBounds(func(int) *tensor.Tensor {
		t.Fatal("a network without a ReLU ran a batch")
		return nil
	}); n != 0 {
		t.Fatalf("RecordReLUBounds on a ReLU-free network reported %d layers", n)
	}
}
