package nas

import (
	"math"
	"testing"

	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

func testMixedOp(lats []float64) *MixedOp {
	slot := models.Slot{ID: 0, Kind: models.SlotAct, Shape: hwmodel.OpShape{FI: 4, IC: 2}}
	cands := []nn.Layer{nn.NewReLU(), nn.NewX2Act("x2", 32)}
	kinds := []hwmodel.OpKind{hwmodel.OpReLU, hwmodel.OpX2Act}
	return newMixedOp(slot, cands, kinds, lats)
}

func TestMixedOpThetaSoftmax(t *testing.T) {
	m := testMixedOp([]float64{1, 2})
	m.Alpha.W.Data[0], m.Alpha.W.Data[1] = 0, 0
	th := m.Theta()
	if math.Abs(th[0]-0.5) > 1e-12 || math.Abs(th[1]-0.5) > 1e-12 {
		t.Fatalf("uniform alpha -> theta %v", th)
	}
	m.Alpha.W.Data[0] = 100
	th = m.Theta()
	if th[0] < 0.999 {
		t.Fatalf("dominant alpha -> theta %v", th)
	}
}

// TestMixedOpGradCheck numerically validates both the α gradient and the
// input gradient of the gated operator.
func TestMixedOpGradCheck(t *testing.T) {
	r := rng.New(1)
	m := testMixedOp([]float64{0, 0})
	m.Alpha.W.Data[0], m.Alpha.W.Data[1] = 0.3, -0.2
	x := tensor.New(1, 8).RandNorm(r, 1)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 1e-2 {
			x.Data[i] = 0.5 // keep ReLU away from its kink
		}
	}
	probe := tensor.New(1, 8).RandNorm(r, 1)
	out := m.Forward(x, true)
	nn.ZeroGrads(m.Params())
	dx := m.Backward(probe)
	_ = out

	loss := func() float64 { return tensor.Dot(m.Forward(x, true), probe) }
	const eps = 1e-6
	// α gradient.
	for k := 0; k < 2; k++ {
		orig := m.Alpha.W.Data[k]
		m.Alpha.W.Data[k] = orig + eps
		lp := loss()
		m.Alpha.W.Data[k] = orig - eps
		lm := loss()
		m.Alpha.W.Data[k] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-m.Alpha.G.Data[k]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("alpha grad[%d]: numeric %v vs analytic %v", k, num, m.Alpha.G.Data[k])
		}
	}
	// Input gradient.
	for _, i := range []int{0, 7} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: numeric %v vs analytic %v", i, num, dx.Data[i])
		}
	}
}

func TestMixedOpLatencyGrad(t *testing.T) {
	m := testMixedOp([]float64{10, 2})
	m.Alpha.W.Data[0], m.Alpha.W.Data[1] = 0, 0
	// Numeric check of d(expected latency)/dα.
	nn.ZeroGrads([]*nn.Param{m.Alpha})
	m.AddLatencyGrad(1)
	const eps = 1e-6
	for k := 0; k < 2; k++ {
		orig := m.Alpha.W.Data[k]
		m.Alpha.W.Data[k] = orig + eps
		lp := m.ExpectedLatency()
		m.Alpha.W.Data[k] = orig - eps
		lm := m.ExpectedLatency()
		m.Alpha.W.Data[k] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-m.Alpha.G.Data[k]) > 1e-6 {
			t.Fatalf("latency grad[%d]: numeric %v vs analytic %v", k, num, m.Alpha.G.Data[k])
		}
	}
	// The cheaper op must receive negative pressure (its α pushed up):
	// gradient for the expensive candidate is positive.
	if m.Alpha.G.Data[0] <= 0 || m.Alpha.G.Data[1] >= 0 {
		t.Fatalf("latency gradient direction wrong: %v", m.Alpha.G.Data)
	}
}

func TestBuildSupernetStructure(t *testing.T) {
	sn, err := BuildSupernet("vgg16", models.CIFARConfig(0.125, 3), hwmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Mixed) != 18 { // 13 act + 5 pool slots
		t.Fatalf("mixed op count %d, want 18", len(sn.Mixed))
	}
	if sn.FixedLatencySec <= 0 {
		t.Fatal("fixed latency must be positive")
	}
	// Arch params: one per gate, 2 entries each.
	arch := sn.Model.Net.Arch()
	if len(arch) != 18 {
		t.Fatalf("arch params %d, want 18", len(arch))
	}
	// Forward must run.
	y := sn.Model.Net.Forward(tensor.New(1, 3, 32, 32), false)
	if y.Shape[1] != 10 {
		t.Fatalf("supernet forward %v", y.Shape)
	}
}

func TestExpectedLatencyBounds(t *testing.T) {
	sn, err := BuildSupernet("resnet18", models.CIFARConfig(0.125, 3), hwmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mixed := sn.ExpectedLatencySec()
	// Force all-ReLU and all-poly and verify the mixture lies between.
	for _, m := range sn.Mixed {
		m.Alpha.W.Data[0] = 50 // ReLU
		m.Alpha.W.Data[1] = 0
	}
	allRelu := sn.ExpectedLatencySec()
	for _, m := range sn.Mixed {
		m.Alpha.W.Data[0] = 0
		m.Alpha.W.Data[1] = 50 // X2act
	}
	allPoly := sn.ExpectedLatencySec()
	if !(allPoly < mixed && mixed < allRelu) {
		t.Fatalf("latency ordering wrong: poly %v mixed %v relu %v", allPoly, mixed, allRelu)
	}
	if allRelu/allPoly < 5 {
		t.Fatalf("all-poly speedup %.1f too small", allRelu/allPoly)
	}
}

func TestDeriveMatchesAlphas(t *testing.T) {
	sn, err := BuildSupernet("vgg16", models.CIFARConfig(0.125, 3), hwmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range sn.Mixed {
		if i%2 == 0 {
			m.Alpha.W.Data[0] = 1 // ReLU / MaxPool
		} else {
			m.Alpha.W.Data[1] = 1 // X2act / AvgPool
		}
	}
	ch := sn.Derive()
	for i, m := range sn.Mixed {
		id := m.Slot.ID
		switch m.Slot.Kind {
		case models.SlotAct:
			want := models.ActReLU
			if i%2 == 1 {
				want = models.ActX2
			}
			if ch.Act[id] != want {
				t.Fatalf("slot %d derived %v, want %v", id, ch.Act[id], want)
			}
		case models.SlotPool:
			want := models.PoolMax
			if i%2 == 1 {
				want = models.PoolAvg
			}
			if ch.Pool[id] != want {
				t.Fatalf("slot %d derived %v, want %v", id, ch.Pool[id], want)
			}
		}
	}
	// Apply must rebuild a model with matching ops.
	cfg := ch.Apply(models.CIFARConfig(0.125, 3))
	m2 := models.VGG16(cfg)
	if m2.Net == nil {
		t.Fatal("derived model must be trainable")
	}
	if ch.PolyFraction() <= 0 || ch.PolyFraction() >= 1 {
		t.Fatalf("poly fraction %v, want mixed", ch.PolyFraction())
	}
}

// searchData builds a small synthetic split for search tests.
func searchData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 128, Classes: 4, C: 3, HW: 16, LatentDim: 8, TeacherHidden: 16,
		Noise: 0.1, Seed: 31,
	})
	return d.Split(0.5, 32)
}

func searchOpts(lambda float64, steps int) Options {
	opts := DefaultOptions("resnet18", lambda)
	opts.ModelCfg.InputHW = 16
	opts.ModelCfg.NumClasses = 4
	opts.ModelCfg.WidthMult = 0.0625
	opts.Steps = steps
	opts.BatchSize = 8
	return opts
}

// TestSearchHighLambdaGoesAllPoly: a dominating latency penalty must drive
// every activation slot to the polynomial candidate (paper Fig. 5: "With
// the increase of latency penalty, the searched structure ... has more
// polynomial operators").
func TestSearchHighLambdaGoesAllPoly(t *testing.T) {
	train, val := searchData(t)
	res, err := Search(searchOpts(1e4, 12), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if pf := res.Choices.PolyFraction(); pf < 0.99 {
		t.Fatalf("high-lambda poly fraction %.2f, want 1.0", pf)
	}
	if res.ReLUCount != 0 {
		t.Fatalf("high-lambda ReLU count %d, want 0", res.ReLUCount)
	}
}

// TestSearchLambdaMonotonicity: increasing λ must not decrease the
// polynomial fraction, and latency must not increase.
func TestSearchLambdaMonotonicity(t *testing.T) {
	train, val := searchData(t)
	resLow, err := Search(searchOpts(0, 12), train, val)
	if err != nil {
		t.Fatal(err)
	}
	resHigh, err := Search(searchOpts(1e4, 12), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if resHigh.Choices.PolyFraction() < resLow.Choices.PolyFraction() {
		t.Fatalf("poly fraction decreased with lambda: %.2f -> %.2f",
			resLow.Choices.PolyFraction(), resHigh.Choices.PolyFraction())
	}
	if resHigh.LatencySec > resLow.LatencySec+1e-12 {
		t.Fatalf("latency increased with lambda: %v -> %v", resLow.LatencySec, resHigh.LatencySec)
	}
}

func TestSearchHistoryRecorded(t *testing.T) {
	train, val := searchData(t)
	res, err := Search(searchOpts(1, 5), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 5 {
		t.Fatalf("history length %d", len(res.History))
	}
	for _, h := range res.History {
		if h.ExpectedLatencySec <= 0 || math.IsNaN(h.TrainLoss) {
			t.Fatalf("bad history entry %+v", h)
		}
	}
}

func TestSearchFirstOrder(t *testing.T) {
	train, val := searchData(t)
	opts := searchOpts(1e4, 8)
	opts.SecondOrder = false
	res, err := Search(opts, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choices.PolyFraction() < 0.99 {
		t.Fatalf("first-order high-lambda poly fraction %.2f", res.Choices.PolyFraction())
	}
}

func TestSearchRejectsBadOptions(t *testing.T) {
	train, val := searchData(t)
	if _, err := Search(Options{}, train, val); err == nil {
		t.Fatal("zero steps must error")
	}
	opts := searchOpts(1, 2)
	opts.Backbone = "nope"
	if _, err := Search(opts, train, val); err == nil {
		t.Fatal("unknown backbone must error")
	}
}

// TestTrainModelLearns: a derived model must beat chance clearly after a
// short training run on the synthetic task.
func TestTrainModelLearns(t *testing.T) {
	train, val := searchData(t)
	cfg := models.CIFARConfig(0.125, 5)
	cfg.InputHW = 16
	cfg.NumClasses = 4
	m := models.ResNet18(cfg)
	topts := DefaultTrainOptions()
	topts.Steps = 120
	topts.BatchSize = 8
	res, err := TrainModel(m, train, val, topts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAccuracy < 0.45 { // chance = 0.25
		t.Fatalf("val accuracy %.2f, want > 0.45", res.ValAccuracy)
	}
	if res.ValTop5 < res.ValAccuracy {
		t.Fatal("top-5 must dominate top-1")
	}
}

func TestTrainModelRejectsOpsOnly(t *testing.T) {
	train, val := searchData(t)
	m := models.ResNet18(models.ImageNetConfig())
	if _, err := TrainModel(m, train, val, DefaultTrainOptions()); err == nil {
		t.Fatal("ops-only model must be rejected")
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	cfg := models.CIFARConfig(0.125, 5)
	cfg.InputHW = 16
	cfg.NumClasses = 4
	m := models.ResNet18(cfg)
	empty := &dataset.Dataset{Images: tensor.New(0, 3, 16, 16), Labels: nil, Classes: 4}
	if got := Evaluate(m, empty, 8); got != 0 {
		t.Fatalf("empty dataset accuracy %v", got)
	}
}

// TestTrainModelRecordsReLUBounds: after training, every ReLU layer's
// Bound is the largest |pre-ReLU| value of the training set in eval mode —
// the batched pass at the training batch size must record exactly what a
// row-at-a-time walk of the layer graph sees.
func TestTrainModelRecordsReLUBounds(t *testing.T) {
	train, val := searchData(t)
	cfg := models.CIFARConfig(0.0625, 5)
	cfg.InputHW = 16
	cfg.NumClasses = 4
	cfg.Act = models.ActReLU
	m := models.ResNet18(cfg)
	topts := DefaultTrainOptions()
	topts.Steps = 10
	topts.BatchSize = 8
	if _, err := TrainModel(m, train, val, topts); err != nil {
		t.Fatal(err)
	}

	want := map[*nn.ReLU]float64{}
	var walk func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor
	walk = func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor {
		switch v := l.(type) {
		case *nn.ReLU:
			for _, e := range x.Data {
				want[v] = math.Max(want[v], math.Abs(e))
			}
		case *nn.Sequential:
			for _, c := range v.Layers {
				x = walk(c, x)
			}
			return x
		case *nn.Residual:
			sc := x
			if v.Shortcut != nil {
				sc = walk(v.Shortcut, x)
			}
			y := tensor.Add(walk(v.Body, x), sc)
			if v.PostAct != nil {
				y = walk(v.PostAct, y)
			}
			return y
		}
		return l.Forward(x, false)
	}
	for i := 0; i < train.Len(); i++ {
		x, _ := train.Batch([]int{i})
		walk(m.Net.Root, x)
	}

	relus := m.Net.ReLUs()
	if len(relus) == 0 || len(want) != len(relus) {
		t.Fatalf("walk saw %d ReLU layers, the network has %d", len(want), len(relus))
	}
	for i, l := range relus {
		if !(l.Bound > 0) || l.Bound != want[l] {
			t.Errorf("ReLU %d: recorded bound %v, row-by-row maximum %v", i, l.Bound, want[l])
		}
	}
}
