package experiments

import (
	"fmt"
	"io"

	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
)

// Table1Row is one system of Table I.
type Table1Row struct {
	// Variant is "PASNet-A" … "PASNet-D" or a cross-work system.
	Variant string
	// Backbone names the underlying architecture.
	Backbone string
	// SynthAccuracy is our measured top-1 on the synthetic CIFAR stand-in
	// (non-zero only for our variants).
	SynthAccuracy float64
	// CIFARLatencyMS and CIFARCommMB are modelled at 32×32 scale.
	CIFARLatencyMS, CIFARCommMB float64
	// CIFAREffi is 1/(ms·kW).
	CIFAREffi float64
	// ImgLatencyS and ImgCommGB are modelled at 224×224 scale.
	ImgLatencyS, ImgCommGB float64
	// ImgEffi is 1/(s·kW).
	ImgEffi float64
	// Paper* are the published Table I values for comparison (zero when
	// the paper does not report the cell).
	PaperCIFARLatencyMS, PaperImgLatencyS, PaperImgCommGB, PaperImgEffi float64
	// Reference marks rows quoted from the paper (CryptGPU/CryptFLOW).
	Reference bool
}

// variantSpec describes how to instantiate a PASNet variant.
type variantSpec struct {
	name, backbone string
	// reluSlots lists act-slot IDs kept as ReLU (PASNet-C); empty = all
	// polynomial.
	reluEvery                                                   int // keep every n-th act slot as ReLU; 0 = none
	reluMax                                                     int // cap on kept ReLUs
	paperCIFARLatMS, paperImgLatS, paperImgCommGB, paperImgEffi float64
}

// table1Variants mirrors the paper's four searched models: A = ResNet-18
// all-poly, B = ResNet-50 all-poly, C = ResNet-50 with four 2PC-ReLU
// operators, D = MobileNetV2 all-poly (paper Sec. IV-C).
func table1Variants() []variantSpec {
	return []variantSpec{
		{name: "PASNet-A", backbone: "resnet18",
			paperCIFARLatMS: 12.2, paperImgLatS: 0.063, paperImgCommGB: 0.035, paperImgEffi: 999},
		{name: "PASNet-B", backbone: "resnet50",
			paperCIFARLatMS: 36.74, paperImgLatS: 0.228, paperImgCommGB: 0.162, paperImgEffi: 274},
		{name: "PASNet-C", backbone: "resnet50", reluEvery: 12, reluMax: 4,
			paperCIFARLatMS: 62.91, paperImgLatS: 0.539, paperImgCommGB: 0.368, paperImgEffi: 115},
		{name: "PASNet-D", backbone: "mobilenetv2",
			paperCIFARLatMS: 104.09, paperImgLatS: 0.184, paperImgCommGB: 0.103, paperImgEffi: 339},
	}
}

// actAtFor returns the variant's activation assignment.
func (v variantSpec) actAtFor() func(int) models.ActChoice {
	if v.reluEvery == 0 {
		return func(int) models.ActChoice { return models.ActX2 }
	}
	kept := map[int]bool{}
	count := 0
	// Keep every reluEvery-th slot as ReLU up to reluMax; slot IDs are
	// dense so this spreads the kept comparisons across the depth.
	for id := v.reluEvery / 2; count < v.reluMax; id += v.reluEvery {
		kept[id] = true
		count++
	}
	return func(slot int) models.ActChoice {
		if kept[slot] {
			return models.ActReLU
		}
		return models.ActX2
	}
}

// Table1 regenerates Table I: modelled latency/communication/efficiency
// of the four PASNet variants at CIFAR and ImageNet scale, our measured
// synthetic accuracy, and the published cross-work reference rows.
// If trainAccuracy is false the (slow) accuracy column is skipped.
func Table1(p Profile, hw hwmodel.Config, trainAccuracy bool, log io.Writer) ([]Table1Row, error) {
	var rows []Table1Row
	var train, val *dataset.Dataset
	if trainAccuracy {
		train, val = p.data()
	}
	for _, v := range table1Variants() {
		actAt := v.actAtFor()
		// CIFAR-scale ops (32×32, full channels).
		cifarCfg := models.Config{
			NumClasses: 10, InputHW: 32, InputC: 3, WidthMult: 1, LatHW: 32,
			Act: models.ActX2, ActAt: actAt, Pool: models.PoolAvg, OpsOnly: true,
		}
		mC, err := models.ByName(v.backbone, cifarCfg)
		if err != nil {
			return nil, err
		}
		costC := mC.Cost(hw)
		// ImageNet-scale ops (224×224).
		imgCfg := models.ImageNetConfig()
		imgCfg.Act = models.ActX2
		imgCfg.ActAt = actAt
		imgCfg.Pool = models.PoolAvg
		mI, err := models.ByName(v.backbone, imgCfg)
		if err != nil {
			return nil, err
		}
		costI := mI.Cost(hw)
		row := Table1Row{
			Variant:             v.name,
			Backbone:            v.backbone,
			CIFARLatencyMS:      costC.TotalSec * 1e3,
			CIFARCommMB:         float64(costC.CommBits) / 8 / 1e6,
			CIFAREffi:           hw.Efficiency(costC.TotalSec, 1e-3),
			ImgLatencyS:         costI.TotalSec,
			ImgCommGB:           float64(costI.CommBits) / 8 / 1e9,
			ImgEffi:             hw.Efficiency(costI.TotalSec, 1),
			PaperCIFARLatencyMS: v.paperCIFARLatMS,
			PaperImgLatencyS:    v.paperImgLatS,
			PaperImgCommGB:      v.paperImgCommGB,
			PaperImgEffi:        v.paperImgEffi,
		}
		if trainAccuracy {
			tcfg := p.modelCfg(p.Seed + 7)
			tcfg.ActAt = actAt
			tcfg.Pool = models.PoolAvg
			m, err := models.ByName(v.backbone, tcfg)
			if err != nil {
				return nil, err
			}
			tr, err := nas.TrainModel(m, train, val, p.trainOpts())
			if err != nil {
				return nil, err
			}
			row.SynthAccuracy = tr.ValAccuracy
		}
		rows = append(rows, row)
		progress(log, "table1 %s: img-lat=%.3fs img-comm=%.3fGB effi=%.0f\n",
			v.name, row.ImgLatencyS, row.ImgCommGB, row.ImgEffi)
	}
	// Cross-work reference rows (published numbers; our substrate cannot
	// re-run closed GPU testbeds).
	rows = append(rows,
		Table1Row{
			Variant: "CryptGPU-ResNet50", Backbone: "resnet50", Reference: true,
			PaperImgLatencyS: 9.31, PaperImgCommGB: 3.08, PaperImgEffi: 0.15,
			ImgLatencyS: 9.31, ImgCommGB: 3.08, ImgEffi: 0.15,
		},
		Table1Row{
			Variant: "CryptFLOW-ResNet50", Backbone: "resnet50", Reference: true,
			PaperImgLatencyS: 25.9, PaperImgCommGB: 6.9, PaperImgEffi: 0.096,
			ImgLatencyS: 25.9, ImgCommGB: 6.9, ImgEffi: 0.096,
		},
	)
	return rows, nil
}

// SpeedupVsCryptGPU summarizes Table I's headline claims: latency and
// communication reduction of each PASNet variant versus CryptGPU.
func SpeedupVsCryptGPU(rows []Table1Row) map[string][2]float64 {
	const gpuLat, gpuComm = 9.31, 3.08
	out := map[string][2]float64{}
	for _, r := range rows {
		if r.Reference || r.ImgLatencyS <= 0 {
			continue
		}
		out[r.Variant] = [2]float64{gpuLat / r.ImgLatencyS, gpuComm / r.ImgCommGB}
	}
	return out
}

// FormatTable1 renders rows as an aligned text table.
func FormatTable1(rows []Table1Row) string {
	out := fmt.Sprintf("%-20s %-12s %12s %12s %12s %12s %12s %12s\n",
		"System", "Backbone", "CIFAR ms", "CIFAR MB", "Effi 1/mskW", "Img s", "Img GB", "Effi 1/skW")
	for _, r := range rows {
		out += fmt.Sprintf("%-20s %-12s %12.2f %12.2f %12.2f %12.3f %12.3f %12.1f\n",
			r.Variant, r.Backbone, r.CIFARLatencyMS, r.CIFARCommMB, r.CIFAREffi,
			r.ImgLatencyS, r.ImgCommGB, r.ImgEffi)
	}
	return out
}
