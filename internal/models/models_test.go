package models

import (
	"testing"

	"pasnet/internal/hwmodel"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// tinyCfg is a fast trainable configuration.
func tinyCfg() Config {
	cfg := CIFARConfig(0.125, 1)
	return cfg
}

func TestSlotCounts(t *testing.T) {
	cases := []struct {
		name      string
		wantActs  int
		wantPools int
	}{
		{"vgg16", 13, 5},
		{"resnet18", 17, 0},
		{"resnet34", 33, 0},
		{"resnet50", 49, 0},
		{"mobilenetv2", 35, 0},
	}
	for _, c := range cases {
		m, err := ByName(c.name, tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		acts, pools := 0, 0
		for _, s := range m.Slots {
			switch s.Kind {
			case SlotAct:
				acts++
			case SlotPool:
				pools++
			}
		}
		if acts != c.wantActs || pools != c.wantPools {
			t.Errorf("%s: %d act + %d pool slots, want %d + %d",
				c.name, acts, pools, c.wantActs, c.wantPools)
		}
		// Slot IDs must be dense and ordered.
		for i, s := range m.Slots {
			if s.ID != i {
				t.Errorf("%s: slot %d has ID %d", c.name, i, s.ID)
			}
		}
	}
}

func TestForwardShapes(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name, tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(2, 3, 32, 32)
		y := m.Net.Forward(x, false)
		if y.Shape[0] != 2 || y.Shape[1] != 10 {
			t.Errorf("%s: output shape %v, want [2 10]", name, y.Shape)
		}
	}
}

func TestBackwardProducesGradients(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name, tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(2, 3, 32, 32).RandNorm(rng.New(2), 1)
		out := m.Net.Forward(x, true)
		_, grad := nn.SoftmaxCE(out, []int{1, 2})
		m.Net.ZeroGrad()
		m.Net.Backward(grad)
		if m.Net.GradNorm() == 0 {
			t.Errorf("%s: zero gradient norm after backward", name)
		}
	}
}

func TestAllPolyHasNoReLU(t *testing.T) {
	cfg := tinyCfg()
	cfg.Act = ActX2
	cfg.Pool = PoolAvg
	for _, name := range Names() {
		m, err := ByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rc := m.ReLUCount(); rc != 0 {
			t.Errorf("%s all-poly: ReLU count %d, want 0", name, rc)
		}
		for _, op := range m.Ops {
			if op.Kind == hwmodel.OpReLU || op.Kind == hwmodel.OpMaxPool {
				t.Errorf("%s all-poly: found comparison op %v", name, op.Kind)
			}
		}
	}
}

func TestReLUCountPositiveForBaseline(t *testing.T) {
	m := ResNet18(tinyCfg())
	if m.ReLUCount() == 0 {
		t.Fatal("baseline ResNet18 must have ReLUs")
	}
}

func TestActAtOverride(t *testing.T) {
	cfg := tinyCfg()
	cfg.ActAt = func(slot int) ActChoice {
		if slot%2 == 0 {
			return ActX2
		}
		return ActReLU
	}
	m := ResNet18(cfg)
	reluOps, x2Ops := 0, 0
	for _, op := range m.Ops {
		switch op.Kind {
		case hwmodel.OpReLU:
			reluOps++
		case hwmodel.OpX2Act:
			x2Ops++
		}
	}
	if reluOps == 0 || x2Ops == 0 {
		t.Fatalf("mixed assignment not reflected: relu=%d x2=%d", reluOps, x2Ops)
	}
}

func TestOpsOnlySkipsNetwork(t *testing.T) {
	cfg := ImageNetConfig()
	m := ResNet50(cfg)
	if m.Net != nil {
		t.Fatal("OpsOnly must not build a network")
	}
	if len(m.Ops) == 0 {
		t.Fatal("OpsOnly must still record ops")
	}
	// The stem must be an ImageNet 7×7/2 on 224 inputs.
	first := m.Ops[0]
	if first.Kind != hwmodel.OpConv || first.Shape.FI != 224 || first.Shape.K != 7 ||
		first.Shape.Stride != 2 || first.Shape.FO != 112 {
		t.Fatalf("ImageNet stem wrong: %+v", first)
	}
}

func TestImageNetStemHasMaxPool(t *testing.T) {
	m := ResNet18(ImageNetConfig())
	foundPool := false
	for _, op := range m.Ops[:4] {
		if op.Kind == hwmodel.OpMaxPool {
			foundPool = true
		}
	}
	if !foundPool {
		t.Fatal("ImageNet stem must include the 3×3/2 max pool")
	}
}

func TestLatencyAllPolyFasterThanAllReLU(t *testing.T) {
	hw := hwmodel.DefaultConfig()
	for _, name := range Names() {
		base := tinyCfg()
		base.OpsOnly = true
		mRelu, _ := ByName(name, base)
		poly := base
		poly.Act = ActX2
		poly.Pool = PoolAvg
		mPoly, _ := ByName(name, poly)
		lr := mRelu.Cost(hw).TotalSec
		lp := mPoly.Cost(hw).TotalSec
		if lr/lp < 5 {
			t.Errorf("%s: all-poly speedup %.1f×, want > 5×", name, lr/lp)
		}
	}
}

func TestVGGPoolSlotChoices(t *testing.T) {
	cfg := tinyCfg()
	cfg.Pool = PoolAvg
	m := VGG16(cfg)
	for _, op := range m.Ops {
		if op.Kind == hwmodel.OpMaxPool {
			t.Fatal("PoolAvg config must not produce max pools")
		}
	}
	_ = m
}

// At InputHW 16 VGG-16's fifth 2×2 pool meets a 1×1 map (the quick and
// full experiment profiles both train there): the builder must keep all
// five slots yet emit no pool wider than its input, for either choice.
func TestVGGPoolsFitSmallInput(t *testing.T) {
	for _, choice := range []PoolChoice{PoolMax, PoolAvg} {
		cfg := tinyCfg()
		cfg.InputHW = 16
		cfg.Pool = choice
		m := VGG16(cfg)
		pools := 0
		for _, s := range m.Slots {
			if s.Kind == SlotPool {
				pools++
			}
		}
		if pools != 5 {
			t.Fatalf("pool choice %v: %d pool slots, want 5", choice, pools)
		}
		y := m.Net.Forward(tensor.New(2, 3, 16, 16), false)
		if y.Shape[0] != 2 || y.Shape[1] != 10 {
			t.Errorf("pool choice %v: output shape %v, want [2 10]", choice, y.Shape)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("alexnet", tinyCfg()); err == nil {
		t.Fatal("unknown backbone must error")
	}
}

func TestMobileNetDepthwiseOps(t *testing.T) {
	cfg := tinyCfg()
	cfg.OpsOnly = true
	m := MobileNetV2(cfg)
	found := false
	for _, op := range m.Ops {
		if op.Kind == hwmodel.OpConv && op.Shape.Groups > 1 {
			found = true
			if op.Shape.IC != op.Shape.OC || op.Shape.Groups != op.Shape.IC {
				t.Fatalf("depthwise op malformed: %+v", op.Shape)
			}
		}
	}
	if !found {
		t.Fatal("MobileNetV2 must contain depthwise convolutions")
	}
}

// TestWidthMultScalesParams: the scaled model must be much smaller than
// the full model.
func TestWidthMultScalesParams(t *testing.T) {
	small := ResNet18(tinyCfg())
	fullCfg := CIFARConfig(1.0, 1)
	full := ResNet18(fullCfg)
	ns := nn.FlatLen(small.Net.Params())
	nf := nn.FlatLen(full.Net.Params())
	if ns*8 > nf {
		t.Fatalf("width 0.125 params %d not ≪ full %d", ns, nf)
	}
	// Latency-scale ops must be identical regardless of WidthMult.
	if len(small.Ops) != len(full.Ops) {
		t.Fatal("op list depends on training width")
	}
	for i := range small.Ops {
		if small.Ops[i].Shape != full.Ops[i].Shape {
			t.Fatalf("op %d shape differs between widths", i)
		}
	}
}

// TestSupernetFactories verifies the factory hooks fire once per slot.
func TestSupernetFactories(t *testing.T) {
	cfg := tinyCfg()
	actCalls, poolCalls := 0, 0
	cfg.ActFactory = func(s Slot, nx int) nn.Layer {
		actCalls++
		if nx <= 0 {
			t.Fatal("Nx must be positive")
		}
		return nn.NewReLU()
	}
	cfg.PoolFactory = func(s Slot, k, stride int) nn.Layer {
		poolCalls++
		return nn.NewMaxPool(k, k, stride)
	}
	m := VGG16(cfg)
	if actCalls != 13 || poolCalls != 5 {
		t.Fatalf("factory calls %d/%d, want 13/5", actCalls, poolCalls)
	}
	y := m.Net.Forward(tensor.New(1, 3, 32, 32), false)
	if y.Shape[1] != 10 {
		t.Fatalf("supernet forward shape %v", y.Shape)
	}
}
