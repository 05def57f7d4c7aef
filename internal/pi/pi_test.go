package pi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"pasnet/internal/dataset"
	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nas"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// trainedModels caches every model the suite trains, once per test
// binary: training is most of the suite's time. A cached model is shared,
// so no test may mutate it, or a program compiled from it (a linear
// head's weights alias the model's data); a test that must builds its own.
var trainedModels sync.Map // key → trainedModel

type trainedModel struct {
	m *models.Model
	d *dataset.Dataset
}

// cachedModel returns the model cached under key, if one is.
func cachedModel(key string) (trainedModel, bool) {
	c, ok := trainedModels.Load(key)
	if !ok {
		return trainedModel{}, false
	}
	return c.(trainedModel), true
}

// smallModel builds and lightly trains a tiny model so BN statistics and
// weights are realistic before compilation. It returns the model together
// with the dataset so tests can draw in-distribution queries (polynomial
// networks, like the paper's, are only meaningful on inputs resembling
// the training distribution — far-off-distribution noise explodes through
// the quadratic layers in plaintext and ciphertext alike). The pair is
// trained once per (backbone, activation) and cached: callers must not
// mutate it.
func smallModel(t *testing.T, name string, act models.ActChoice) (*models.Model, *dataset.Dataset) {
	t.Helper()
	key := fmt.Sprintf("small/%s/%v", name, act)
	if c, ok := cachedModel(key); ok {
		return c.m, c.d
	}
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = 16
	cfg.NumClasses = 4
	cfg.Act = act
	m, err := models.ByName(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 128, Classes: 4, C: 3, HW: 16, LatentDim: 8, TeacherHidden: 16,
		TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})
	opts := nas.DefaultTrainOptions()
	opts.Steps = 80
	opts.BatchSize = 16
	if _, err := nas.TrainModel(m, d, d, opts); err != nil {
		t.Fatal(err)
	}
	trainedModels.Store(key, trainedModel{m, d})
	return m, d
}

// query extracts one in-distribution image as the private query.
func query(d *dataset.Dataset, i int) *tensor.Tensor {
	x, _ := d.Batch([]int{i % d.Len()})
	return x
}

func TestCompileCountsSecrets(t *testing.T) {
	m, _ := smallModel(t, "resnet18", models.ActX2)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	// ResNet18: 1 stem + 8 blocks × 2 convs + 3 projections + 1 FC = 21.
	if got := prog.NumSecretTensors(); got != 21 {
		t.Fatalf("secret tensors %d, want 21", got)
	}
}

func TestPrivateInferenceMatchesPlaintextX2(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	x := query(d, 0)
	res, err := Run(m, []*tensor.Tensor{x}, 77, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsErr > 0.05 {
		t.Fatalf("ciphertext deviates from plaintext by %v", res.MaxAbsErr)
	}
	if res.OnlineBytes <= 0 || res.SetupBytes <= 0 {
		t.Fatalf("traffic accounting broken: %+v", res)
	}
	if m.Cost(hwmodel.DefaultConfig()).TotalSec <= 0 {
		t.Fatal("modelled latency must be positive")
	}
}

// TestNaNQueryIsInfinitelyWrong: a NaN query makes the plaintext logits
// NaN while the ring decodes to finite garbage, so the reported error
// must be +Inf — a max over |out−plain| that skips NaN would read 0 and
// pass every bound.
func TestNaNQueryIsInfinitelyWrong(t *testing.T) {
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = 8
	cfg.NumClasses = 4
	cfg.Act = models.ActX2
	m, err := models.ByName("resnet18", cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 8, 8)
	x.Data[0] = math.NaN()
	res, err := Run(m, []*tensor.Tensor{x}, 82, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.MaxAbsErr, 1) {
		t.Fatalf("NaN query: MaxAbsErr %v, want +Inf", res.MaxAbsErr)
	}
	for _, c := range []struct {
		got, want []float64
		err       float64
	}{
		{[]float64{1, 2}, []float64{1.5, 2}, 0.5},
		{[]float64{1, math.NaN()}, []float64{1, 2}, math.Inf(1)},
		{[]float64{1, 2}, []float64{1}, math.Inf(1)},
	} {
		if got := MaxAbsErr(c.got, c.want); got != c.err {
			t.Fatalf("MaxAbsErr(%v, %v) = %v, want %v", c.got, c.want, got, c.err)
		}
	}
}

func TestPrivateInferenceMatchesPlaintextReLU(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActReLU)
	x := query(d, 1)
	res, err := Run(m, []*tensor.Tensor{x}, 78, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsErr > 0.05 {
		t.Fatalf("ciphertext deviates from plaintext by %v", res.MaxAbsErr)
	}
}

func TestPrivateInferenceVGGWithPools(t *testing.T) {
	cfg := models.CIFARConfig(0.0625, 6)
	cfg.NumClasses = 4
	cfg.Act = models.ActX2
	cfg.Pool = PoolMixFor(t)
	m := models.VGG16(cfg)
	// Light training for BN stats.
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: 32, LatentDim: 8, TeacherHidden: 16,
		TeacherDepth: 2, Noise: 0.1, Seed: 10,
	})
	opts := nas.DefaultTrainOptions()
	opts.Steps = 40
	opts.BatchSize = 8
	if _, err := nas.TrainModel(m, d, d, opts); err != nil {
		t.Fatal(err)
	}
	x := query(d, 2)
	res, err := Run(m, []*tensor.Tensor{x}, 79, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsErr > 0.08 {
		t.Fatalf("VGG ciphertext deviates by %v", res.MaxAbsErr)
	}
}

// PoolMixFor returns MaxPool to exercise the comparison path in at least
// one pooling layer (VGG has five pool slots).
func PoolMixFor(_ *testing.T) models.PoolChoice { return models.PoolMax }

func TestPrivateInferenceMobileNet(t *testing.T) {
	m, d := smallModel(t, "mobilenetv2", models.ActX2)
	x := query(d, 3)
	res, err := Run(m, []*tensor.Tensor{x}, 80, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsErr > 0.08 {
		t.Fatalf("mobilenet ciphertext deviates by %v", res.MaxAbsErr)
	}
}

// TestArgmaxAgreement: the private and plaintext top-1 class must agree
// on most inputs (end-to-end fidelity of the whole protocol stack).
func TestArgmaxAgreement(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	agree := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		x := query(d, 10+i)
		res, err := Run(m, []*tensor.Tensor{x}, uint64(200+i), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if argmax(res.Output) == argmax(res.Plain) {
			agree++
		}
	}
	if agree < trials-1 {
		t.Fatalf("argmax agreement %d/%d", agree, trials)
	}
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func TestCompileRejectsBareBatchNorm(t *testing.T) {
	r := rng.New(1)
	net := nn.NewNetwork(nn.NewSequential(
		nn.NewBatchNorm2D("bn", 3),
		nn.NewLinear("fc", 3, 2, r),
	))
	if _, err := Compile(net); err == nil {
		t.Fatal("bare batchnorm must fail compilation")
	}
}

func TestCompileRejectsOpsOnlyModel(t *testing.T) {
	m := models.ResNet18(models.ImageNetConfig())
	if _, err := Run(m, []*tensor.Tensor{tensor.New(1, 3, 16, 16)}, 1, RunOptions{}); err == nil {
		t.Fatal("ops-only model must be rejected")
	}
}

func TestEngineInferBeforeSetup(t *testing.T) {
	eng := NewEngine(&Program{})
	if _, err := eng.Infer(mpc.Share{}); err == nil {
		t.Fatal("Infer before Setup must error")
	}
}

// TestQuantizationErrorScales: a deeper all-poly model should still stay
// within fixed-point error budget.
func TestQuantizationBudget(t *testing.T) {
	m, d := smallModel(t, "resnet34", models.ActX2)
	x := query(d, 4)
	res, err := Run(m, []*tensor.Tensor{x}, 81, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.MaxAbsErr) || res.MaxAbsErr > 0.15 {
		t.Fatalf("resnet34 fixed-point error %v", res.MaxAbsErr)
	}
}

// TestBatchPrivateInference verifies that the engine handles batch > 1.
func TestBatchPrivateInference(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	x, _ := d.Batch([]int{0, 1, 2})
	res, err := Run(m, []*tensor.Tensor{x}, 91, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 3*4 {
		t.Fatalf("batch output length %d, want 12", len(res.Output))
	}
	if res.MaxAbsErr > 0.08 {
		t.Fatalf("batch inference error %v", res.MaxAbsErr)
	}
}

// TestSecureArgMaxEndToEnd: compile, infer, and reveal only the class
// index via the ArgMax protocol.
func TestSecureArgMaxEndToEnd(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	x, _ := d.Batch([]int{5})
	plain := m.Net.Forward(x, false)
	want := argmax(plain.Data)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	err = mpc.RunProtocol(92, fixedDefaultForTest(), func(p *mpc.Party) error {
		eng := NewEngine(prog)
		if err := eng.Setup(p); err != nil {
			return err
		}
		var enc []uint64
		if p.ID == 1 {
			enc = p.EncodeTensor(x.Data)
		}
		xs, err := p.ShareInput(1, enc, x.Shape...)
		if err != nil {
			return err
		}
		out, err := eng.Infer(xs)
		if err != nil {
			return err
		}
		idx, err := p.ArgMax(out)
		if err != nil {
			return err
		}
		got, err := p.Reveal(idx)
		if err != nil {
			return err
		}
		if got[0] != uint64(want) {
			t.Errorf("party %d: secure argmax %d, plaintext %d", p.ID, got[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func fixedDefaultForTest() fixed.Codec64 { return fixed.Default64() }
