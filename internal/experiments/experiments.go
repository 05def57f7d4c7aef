// Package experiments contains one harness per exhibit of the paper's
// evaluation (Fig. 1, Fig. 5a/5b, Fig. 6, Fig. 7, Table I). Each harness
// regenerates the exhibit's rows/series from this repository's own
// substrates and returns structured results that cmd/pasnet-bench prints
// and bench_test.go measures.
package experiments

import (
	"fmt"
	"io"

	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
)

// Profile scales the training-side experiments: Quick for tests and CI,
// Full for the complete five-backbone regeneration.
type Profile struct {
	// Backbones lists the search baselines to run.
	Backbones []string
	// Lambdas is the latency-penalty sweep (λ1 < λ2 < λ3 < λ4).
	Lambdas []float64
	// SearchSteps and TrainSteps bound the optimization loops.
	SearchSteps, TrainSteps int
	// BatchSize applies to both loops.
	BatchSize int
	// DataN is the synthetic dataset size.
	DataN int
	// WidthMult scales the trainable networks.
	WidthMult float64
	// InputHW is the training resolution.
	InputHW int
	// Classes is the label arity of the synthetic task.
	Classes int
	// Seed fixes all randomness.
	Seed uint64
}

// QuickProfile runs in well under a minute: two backbones, two λ.
func QuickProfile() Profile {
	return Profile{
		Backbones:   []string{"resnet18", "vgg16"},
		Lambdas:     []float64{0, 100},
		SearchSteps: 10,
		TrainSteps:  60,
		BatchSize:   8,
		DataN:       256,
		WidthMult:   0.0625,
		InputHW:     16,
		Classes:     6,
		Seed:        1234,
	}
}

// Fig7Profile is the smallest profile at which the accuracy mechanism of
// Fig. 7 is reliably visible (per-seed probing: polynomial nets need
// ~300 training samples, width 0.125 and ~250 steps before they match
// ReLU nets and clearly beat linearization on the synthetic task).
func Fig7Profile() Profile {
	return Profile{
		Backbones:   []string{"resnet18"},
		Lambdas:     []float64{0, 100},
		SearchSteps: 15,
		TrainSteps:  250,
		BatchSize:   16,
		DataN:       600,
		WidthMult:   0.125,
		InputHW:     16,
		Classes:     6,
		Seed:        1234,
	}
}

// FullProfile regenerates the complete exhibits (minutes of CPU time).
func FullProfile() Profile {
	return Profile{
		Backbones:   []string{"vgg16", "mobilenetv2", "resnet18", "resnet34", "resnet50"},
		Lambdas:     []float64{0, 1, 10, 100},
		SearchSteps: 40,
		TrainSteps:  300,
		BatchSize:   16,
		DataN:       800,
		WidthMult:   0.125,
		InputHW:     16,
		Classes:     6,
		Seed:        1234,
	}
}

// modelCfg builds the shared training-scale model configuration.
func (p Profile) modelCfg(seed uint64) models.Config {
	cfg := models.CIFARConfig(p.WidthMult, seed)
	cfg.InputHW = p.InputHW
	cfg.NumClasses = p.Classes
	return cfg
}

// data generates the CIFAR-stand-in and the paper's 50/50 search split.
func (p Profile) data() (train, val *dataset.Dataset) {
	d := dataset.Synthetic(dataset.SynthConfig{
		N: p.DataN, Classes: p.Classes, C: 3, HW: p.InputHW,
		LatentDim: 8, TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1,
		Seed: p.Seed,
	})
	return d.Split(0.5, p.Seed+1)
}

// trainOpts builds the finetune options.
func (p Profile) trainOpts() nas.TrainOptions {
	o := nas.DefaultTrainOptions()
	o.Steps = p.TrainSteps
	o.BatchSize = p.BatchSize
	o.Seed = p.Seed + 2
	return o
}

// searchOpts builds the NAS options for a backbone and λ.
func (p Profile) searchOpts(backbone string, lambda float64) nas.Options {
	o := nas.DefaultOptions(backbone, lambda)
	o.ModelCfg = p.modelCfg(p.Seed + 3)
	o.Steps = p.SearchSteps
	o.BatchSize = p.BatchSize
	o.Seed = p.Seed + 4
	return o
}

// Fig1Row is one operator of the ResNet-50 bottleneck breakdown.
type Fig1Row struct {
	// Name matches the paper's operator label.
	Name string
	// PaperMS is the published latency; ModelMS ours.
	PaperMS, ModelMS float64
}

// Fig1Breakdown regenerates Fig. 1(c): the per-operator 2PC latency of the
// first ImageNet ResNet-50 bottleneck block on the default hardware.
func Fig1Breakdown(hw hwmodel.Config) []Fig1Row {
	type opCase struct {
		name    string
		kind    hwmodel.OpKind
		shape   hwmodel.OpShape
		paperMS float64
	}
	cases := []opCase{
		{"Conv1 1x1x64", hwmodel.OpConv, hwmodel.OpShape{FI: 56, IC: 64, OC: 64, K: 1, Stride: 1, FO: 56}, 1.9},
		{"ReLU1 64", hwmodel.OpReLU, hwmodel.OpShape{FI: 56, IC: 64}, 193.3},
		{"Conv2 3x3x64", hwmodel.OpConv, hwmodel.OpShape{FI: 56, IC: 64, OC: 64, K: 3, Stride: 1, FO: 56}, 3.2},
		{"ReLU2 64", hwmodel.OpReLU, hwmodel.OpShape{FI: 56, IC: 64}, 193.3},
		{"Conv3 1x1x256", hwmodel.OpConv, hwmodel.OpShape{FI: 56, IC: 64, OC: 256, K: 1, Stride: 1, FO: 56}, 2.4},
		{"Conv4 1x1x256", hwmodel.OpConv, hwmodel.OpShape{FI: 56, IC: 64, OC: 256, K: 1, Stride: 1, FO: 56}, 2.4},
		{"Add1", hwmodel.OpAdd, hwmodel.OpShape{FI: 56, IC: 256}, 0.1},
		{"ReLU3 256", hwmodel.OpReLU, hwmodel.OpShape{FI: 56, IC: 256}, 772.2},
	}
	rows := make([]Fig1Row, len(cases))
	for i, c := range cases {
		rows[i] = Fig1Row{
			Name:    c.name,
			PaperMS: c.paperMS,
			ModelMS: hw.Op(c.kind, c.shape).TotalSec * 1e3,
		}
	}
	return rows
}

// Fig5Row is one (backbone, λ) cell of Fig. 5(a)+(b).
type Fig5Row struct {
	Backbone string
	// Setting is "all-relu", "lambda=x", or "all-poly".
	Setting string
	// Accuracy is finetuned top-1 on the synthetic validation split.
	Accuracy float64
	// LatencyMS is the modelled CIFAR-scale PI latency.
	LatencyMS float64
	// PolyFraction is the share of activation slots resolved to X²act.
	PolyFraction float64
	// ReLUCount is the per-inference ReLU evaluations (latency scale).
	ReLUCount int
}

// Fig5 regenerates Fig. 5: for every backbone, the all-ReLU baseline, the
// λ sweep of searched models, and the all-poly endpoint, each finetuned
// and evaluated, with modelled private-inference latency.
func Fig5(p Profile, hw hwmodel.Config, log io.Writer) ([]Fig5Row, error) {
	train, val := p.data()
	var rows []Fig5Row
	for _, backbone := range p.Backbones {
		// Endpoints: all-ReLU and all-poly.
		for _, endpoint := range []struct {
			setting string
			act     models.ActChoice
			pool    models.PoolChoice
		}{
			{"all-relu", models.ActReLU, models.PoolMax},
			{"all-poly", models.ActX2, models.PoolAvg},
		} {
			cfg := p.modelCfg(p.Seed + 5)
			cfg.Act = endpoint.act
			cfg.Pool = endpoint.pool
			m, err := models.ByName(backbone, cfg)
			if err != nil {
				return nil, err
			}
			tr, err := nas.TrainModel(m, train, val, p.trainOpts())
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig5Row{
				Backbone:     backbone,
				Setting:      endpoint.setting,
				Accuracy:     tr.ValAccuracy,
				LatencyMS:    m.Cost(hw).TotalSec * 1e3,
				PolyFraction: polyFracOf(endpoint.act),
				ReLUCount:    m.ReLUCount(),
			})
			progress(log, "fig5 %s %s: acc=%.3f lat=%.1fms\n",
				backbone, endpoint.setting, tr.ValAccuracy, m.Cost(hw).TotalSec*1e3)
		}
		// λ sweep.
		for _, lambda := range p.Lambdas {
			res, err := nas.Search(p.searchOpts(backbone, lambda), train, val)
			if err != nil {
				return nil, err
			}
			tr, err := nas.TrainModel(res.Derived, train, val, p.trainOpts())
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig5Row{
				Backbone:     backbone,
				Setting:      fmt.Sprintf("lambda=%g", lambda),
				Accuracy:     tr.ValAccuracy,
				LatencyMS:    res.LatencySec * 1e3,
				PolyFraction: res.Choices.PolyFraction(),
				ReLUCount:    res.ReLUCount,
			})
			progress(log, "fig5 %s lambda=%g: acc=%.3f lat=%.1fms poly=%.2f\n",
				backbone, lambda, tr.ValAccuracy, res.LatencySec*1e3, res.Choices.PolyFraction())
		}
	}
	return rows, nil
}

func polyFracOf(a models.ActChoice) float64 {
	if a == models.ActX2 {
		return 1
	}
	return 0
}

func progress(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// SpeedupSummary extracts Fig. 5(b)'s headline: the all-poly speedup per
// backbone (paper: 15-26×).
func SpeedupSummary(rows []Fig5Row) map[string]float64 {
	base := map[string]float64{}
	poly := map[string]float64{}
	for _, r := range rows {
		switch r.Setting {
		case "all-relu":
			base[r.Backbone] = r.LatencyMS
		case "all-poly":
			poly[r.Backbone] = r.LatencyMS
		}
	}
	out := map[string]float64{}
	for b, l := range base {
		if p, ok := poly[b]; ok && p > 0 {
			out[b] = l / p
		}
	}
	return out
}
