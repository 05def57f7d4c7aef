// Benchmarks regenerating every exhibit of the paper's evaluation
// (Fig. 1, Fig. 5a/5b, Fig. 6, Fig. 7, Table I) plus microbenchmarks of
// the 2PC protocol substrate. Custom metrics attach the scientific
// quantities (latency, accuracy, speedups) to the benchmark output.
package pasnet_test

import (
	"testing"

	"pasnet/internal/dataset"
	"pasnet/internal/experiments"
	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nas"
	"pasnet/internal/obs"
	"pasnet/internal/ot"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// BenchmarkFig1BottleneckBreakdown regenerates Fig. 1(c): the per-operator
// 2PC latency of the ImageNet ResNet-50 bottleneck. Metrics report the
// modelled ReLU share (paper: >99%).
func BenchmarkFig1BottleneckBreakdown(b *testing.B) {
	hw := hwmodel.DefaultConfig()
	var reluShare float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1Breakdown(hw)
		var relu, total float64
		for _, r := range rows {
			total += r.ModelMS
			if len(r.Name) >= 4 && r.Name[:4] == "ReLU" {
				relu += r.ModelMS
			}
		}
		reluShare = relu / total
	}
	b.ReportMetric(reluShare*100, "relu-share-%")
}

// BenchmarkFig5SearchCIFAR regenerates Fig. 5 (quick profile, ResNet-18):
// the λ sweep of hardware-aware searches with finetuning. Metrics report
// the all-poly speedup (paper: 19-26× for ResNet-18).
func BenchmarkFig5SearchCIFAR(b *testing.B) {
	p := experiments.QuickProfile()
	p.Backbones = []string{"resnet18"}
	hw := hwmodel.DefaultConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(p, hw, nil)
		if err != nil {
			b.Fatal(err)
		}
		speedup = experiments.SpeedupSummary(rows)["resnet18"]
	}
	b.ReportMetric(speedup, "all-poly-speedup-x")
}

// BenchmarkFig6Pareto regenerates Fig. 6's Pareto extraction on top of a
// quick Fig. 5 archive.
func BenchmarkFig6Pareto(b *testing.B) {
	p := experiments.QuickProfile()
	p.Backbones = []string{"resnet18"}
	rows, err := experiments.Fig5(p, hwmodel.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Fig6Pareto(rows))
	}
	b.ReportMetric(float64(n), "pareto-points")
}

// BenchmarkFig7Baselines regenerates Fig. 7 (quick profile): PASNet vs
// the SNL/DeepReDuce/DELPHI/CryptoNAS-style baselines. Metrics report the
// zero-ReLU accuracy gap between polynomial replacement and the best
// identity-based linearization (paper: PASNet holds accuracy).
func BenchmarkFig7Baselines(b *testing.B) {
	p := experiments.Fig7Profile()
	var gap float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig7CrossWork(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		adv := experiments.LowReLUAdvantage(series)
		identityBest := adv["SNL"]
		if adv["DeepReDuce"] > identityBest {
			identityBest = adv["DeepReDuce"]
		}
		gap = adv["PASNet"] - identityBest
	}
	b.ReportMetric(gap, "poly-vs-identity-acc-gap")
}

// BenchmarkTable1Variants regenerates Table I's modelled columns for
// PASNet-A/B/C/D at ImageNet scale. Metrics report PASNet-A's latency
// speedup over CryptGPU (paper: 147×).
func BenchmarkTable1Variants(b *testing.B) {
	p := experiments.QuickProfile()
	hw := hwmodel.DefaultConfig()
	var speedupA float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(p, hw, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		speedupA = experiments.SpeedupVsCryptGPU(rows)["PASNet-A"][0]
	}
	b.ReportMetric(speedupA, "A-vs-CryptGPU-x")
}

// BenchmarkAblationDARTSOrder compares first- versus second-order search
// (experiments.DARTSOrderAblation).
func BenchmarkAblationDARTSOrder(b *testing.B) {
	p := experiments.QuickProfile()
	p.Backbones = []string{"resnet18"}
	p.SearchSteps = 6
	p.TrainSteps = 30
	hw := hwmodel.DefaultConfig()
	var accGap float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DARTSOrderAblation(p, hw)
		if err != nil {
			b.Fatal(err)
		}
		accGap = rows[1].Accuracy - rows[0].Accuracy
	}
	b.ReportMetric(accGap, "second-vs-first-acc")
}

// BenchmarkLatencyLUTBuild measures the cost of building the full latency
// lookup table for ResNet-50 at ImageNet scale.
func BenchmarkLatencyLUTBuild(b *testing.B) {
	m := models.ResNet50(models.ImageNetConfig())
	hw := hwmodel.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hwmodel.NewLUT(hw).Build(m.Ops)
	}
}

// --- Protocol microbenchmarks (real 2PC execution over an in-memory
// transport; these measure the simulator, not the FPGA model). ---

// benchProtocol runs one protocol op between two parties b.N times.
func benchProtocol(b *testing.B, n int, op func(p *mpc.Party, x mpc.Share) error) {
	b.Helper()
	r := rng.New(9)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm() * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpc.RunProtocol(uint64(i+1), fixed.Default64(), func(p *mpc.Party) error {
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(0, enc, n)
			if err != nil {
				return err
			}
			return op(p, x)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "elements")
}

func Benchmark2PCReLU1k(b *testing.B) {
	const n = 1024
	var wire obs.WireTotals // party 1's count of the last ReLU, both directions
	benchProtocol(b, n, func(p *mpc.Party, x mpc.Share) error {
		w := obs.InstrumentConn(p.Conn, nil)
		p.Conn = w
		_, err := p.ReLU(x)
		if p.ID == 1 {
			wire = w.Totals()
		}
		return err
	})
	b.ReportMetric(float64(wire.SentBytes+wire.RecvBytes)/n, "B/elem")
	b.ReportMetric(float64(wire.SentFrames+wire.RecvFrames), "frames/op")
}

func Benchmark2PCX2Act1k(b *testing.B) {
	prm := mpc.X2ActParams{W1: 0.1, W2: 1, B: 0.01, Scale: 1}
	benchProtocol(b, 1024, func(p *mpc.Party, x mpc.Share) error {
		_, err := p.X2Act(x, prm)
		return err
	})
}

func Benchmark2PCSquare1k(b *testing.B) {
	benchProtocol(b, 1024, func(p *mpc.Party, x mpc.Share) error {
		_, err := p.Square(x)
		return err
	})
}

func Benchmark2PCMaxPool(b *testing.B) {
	benchProtocol(b, 1*4*16*16, func(p *mpc.Party, x mpc.Share) error {
		_, err := p.MaxPool2D(x.Reshape(1, 4, 16, 16), 2, 2, 2)
		return err
	})
}

func Benchmark2PCConv8x8(b *testing.B) {
	dims := mpc.ConvDims{N: 1, InC: 4, H: 8, W: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	r := rng.New(10)
	ws := make([]float64, dims.KLen())
	for i := range ws {
		ws[i] = r.Norm() * 0.5
	}
	benchProtocol(b, dims.InLen(), func(p *mpc.Party, x mpc.Share) error {
		var encW []uint64
		if p.ID == 0 {
			encW = p.EncodeTensor(ws)
		}
		w, err := p.ShareInput(0, encW, dims.OutC, dims.InC, dims.KH, dims.KW)
		if err != nil {
			return err
		}
		_, err = p.Conv2D(x.Reshape(dims.N, dims.InC, dims.H, dims.W), w, dims)
		return err
	})
}

// BenchmarkOT1of4Batch measures the Fig. 4 OT flow for a batch of 4096
// (1,4)-OT instances.
func BenchmarkOT1of4Batch(b *testing.B) {
	const n = 4096
	r := rng.New(11)
	tables := make([][ot.NumChoices]byte, n)
	choices := make([]byte, n)
	for j := range tables {
		for i := range tables[j] {
			tables[j][i] = byte(r.Uint32())
		}
		choices[j] = byte(r.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, cr := transport.Pipe()
		errc := make(chan error, 1)
		go func() { errc <- ot.Sender(cs, rng.New(uint64(i+1)), tables) }()
		if _, err := ot.Receiver(cr, rng.New(uint64(i+2)), choices); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
		cs.Close()
		cr.Close()
	}
	b.ReportMetric(n, "ots")
}

// BenchmarkPrivateInferenceTinyResNet measures an end-to-end verified 2PC
// inference of a small all-polynomial ResNet-18.
func BenchmarkPrivateInferenceTinyResNet(b *testing.B) {
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = 16
	cfg.NumClasses = 4
	cfg.Act = models.ActX2
	m, err := models.ByName("resnet18", cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 32, Classes: 4, C: 3, HW: 16, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 4,
	})
	tOpts := nas.DefaultTrainOptions()
	tOpts.Steps = 10
	tOpts.BatchSize = 8
	if _, err := nas.TrainModel(m, d, d, tOpts); err != nil {
		b.Fatal(err)
	}
	x := tensor.New(1, 3, 16, 16).RandNorm(rng.New(5), 1)
	hw := hwmodel.DefaultConfig()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := pi.Run(m, hw, x, uint64(i+7))
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.OnlineBytes
	}
	b.ReportMetric(float64(bytes), "online-bytes")
}

// BenchmarkSearchStep measures one Algorithm 1 iteration (α update +
// ω update) on the ResNet-18 supernet.
func BenchmarkSearchStep(b *testing.B) {
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: 16, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 6,
	})
	train, val := d.Split(0.5, 7)
	opts := nas.DefaultOptions("resnet18", 10)
	opts.ModelCfg.InputHW = 16
	opts.ModelCfg.NumClasses = 4
	opts.ModelCfg.WidthMult = 0.0625
	opts.BatchSize = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Steps = 1
		if _, err := nas.Search(opts, train, val); err != nil {
			b.Fatal(err)
		}
	}
}
