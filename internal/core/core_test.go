package core

import (
	"testing"

	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"pasnet/internal/pi"
	"pasnet/internal/tensor"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(hwmodel.Config{}); err == nil {
		t.Fatal("invalid hardware must be rejected")
	}
	f, err := New(hwmodel.DefaultConfig())
	if err != nil || f == nil {
		t.Fatalf("default hardware rejected: %v", err)
	}
	if Default().HW.FreqHz != 200e6 {
		t.Fatal("Default misconfigured")
	}
}

func TestLatencyLUTCoversSearchSpace(t *testing.T) {
	f := Default()
	lut, err := f.LatencyLUT("resnet18", models.CIFARConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Every act slot must have both ReLU and X2act entries.
	m, _ := models.ByName("resnet18", models.Config{
		NumClasses: 10, InputHW: 32, InputC: 3, WidthMult: 1, LatHW: 32, OpsOnly: true,
	})
	for _, s := range m.Slots {
		if s.Kind != models.SlotAct {
			continue
		}
		relu := lut.Cost(hwmodel.NetOp{Kind: hwmodel.OpReLU, Shape: s.Shape})
		x2 := lut.Cost(hwmodel.NetOp{Kind: hwmodel.OpX2Act, Shape: s.Shape})
		if relu.TotalSec <= x2.TotalSec {
			t.Fatalf("slot %d: ReLU (%v) must cost more than X2act (%v)",
				s.ID, relu.TotalSec, x2.TotalSec)
		}
	}
	if _, err := f.LatencyLUT("nope", models.CIFARConfig(1, 1)); err == nil {
		t.Fatal("unknown backbone must error")
	}
}

func TestSearchAndTrainPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline")
	}
	f := Default()
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 128, Classes: 4, C: 3, HW: 16, LatentDim: 8, TeacherHidden: 16,
		TeacherDepth: 2, Noise: 0.1, Seed: 3,
	})
	train, val := d.Split(0.5, 4)
	opts := nas.DefaultOptions("resnet18", 1e4)
	opts.ModelCfg.InputHW = 16
	opts.ModelCfg.NumClasses = 4
	opts.ModelCfg.WidthMult = 0.0625
	opts.Steps = 6
	opts.BatchSize = 8
	tOpts := nas.DefaultTrainOptions()
	tOpts.Steps = 20
	tOpts.BatchSize = 8
	res, err := f.SearchAndTrain(opts, tOpts, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.TotalSec <= 0 || res.EfficiencyPerMsKW <= 0 {
		t.Fatalf("bad pipeline metrics %+v", res)
	}
	if res.Search.Choices.PolyFraction() < 0.99 {
		t.Fatalf("high-lambda pipeline poly fraction %.2f", res.Search.Choices.PolyFraction())
	}
	// Deploy the derived model under 2PC and verify fidelity on an
	// in-distribution query.
	x, _ := val.Batch([]int{0})
	piRes, err := pi.Run(res.Search.Derived, []*tensor.Tensor{x}, 6, pi.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if piRes.MaxAbsErr > 0.08 {
		t.Fatalf("private inference error %v", piRes.MaxAbsErr)
	}
}
