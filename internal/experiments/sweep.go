package experiments

import (
	"io"

	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"strings"
)

// SweepPoint is one network-bandwidth operating point of the deployment
// sensitivity analysis (the paper's framework takes "network info
// (bandwidth, latency)" as an input, Fig. 3).
type SweepPoint struct {
	// BandwidthGBps is the link bandwidth in gigabytes per second.
	BandwidthGBps float64
	// AllReLUMS and AllPolyMS are the modelled CIFAR-scale latencies.
	AllReLUMS, AllPolyMS float64
	// Speedup is their ratio.
	Speedup float64
}

// NetworkSweep models a backbone's all-ReLU versus all-poly latency across
// link bandwidths, showing how the polynomial advantage grows as the
// network slows (comparison traffic dominates ReLU cost).
func NetworkSweep(backbone string, bandwidthsGBps []float64) ([]SweepPoint, error) {
	base := models.CIFARConfig(1, 1)
	base.OpsOnly = true
	relu := base
	poly := base
	poly.Act = models.ActX2
	poly.Pool = models.PoolAvg
	mRelu, err := models.ByName(backbone, relu)
	if err != nil {
		return nil, err
	}
	mPoly, err := models.ByName(backbone, poly)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, 0, len(bandwidthsGBps))
	for _, gbps := range bandwidthsGBps {
		hw := hwmodel.DefaultConfig()
		hw.BandwidthBps = gbps * 8e9
		lr := mRelu.Cost(hw).TotalSec * 1e3
		lp := mPoly.Cost(hw).TotalSec * 1e3
		pts = append(pts, SweepPoint{
			BandwidthGBps: gbps,
			AllReLUMS:     lr,
			AllPolyMS:     lp,
			Speedup:       lr / lp,
		})
	}
	return pts, nil
}

// STPAIRow compares initialization strategies for the polynomial
// activation (STPAI vs naive init).
type STPAIRow struct {
	// Init labels the strategy.
	Init string
	// Accuracy is final validation top-1.
	Accuracy float64
	// FinalTrainLoss indicates divergence (≈ln(classes) means dead).
	FinalTrainLoss float64
}

// STPAIAblation trains the all-polynomial backbone twice: once with the
// paper's straight-through initialization (w1≈0, w2≈1) and once with a
// naive quadratic start (w1=1, w2=1), demonstrating why STPAI exists.
func STPAIAblation(p Profile, log io.Writer) ([]STPAIRow, error) {
	train, val := p.data()
	var rows []STPAIRow
	for _, mode := range []string{"stpai", "naive"} {
		cfg := p.modelCfg(p.Seed + 8)
		cfg.Act = models.ActX2
		cfg.Pool = models.PoolAvg
		m, err := models.ByName(p.Backbones[0], cfg)
		if err != nil {
			return nil, err
		}
		if mode == "naive" {
			// Overwrite every X²act coefficient with an aggressive
			// quadratic start.
			for _, prm := range m.Net.Params() {
				switch {
				case strings.HasSuffix(prm.Name, ".w1"):
					prm.W.Data[0] = 1
				case strings.HasSuffix(prm.Name, ".w2"):
					prm.W.Data[0] = 1
				}
			}
		}
		tr, err := nas.TrainModel(m, train, val, p.trainOpts())
		if err != nil {
			return nil, err
		}
		rows = append(rows, STPAIRow{
			Init:           mode,
			Accuracy:       tr.ValAccuracy,
			FinalTrainLoss: tr.FinalTrainLoss,
		})
		progress(log, "stpai-ablation %s: acc=%.3f loss=%.3f\n", mode, tr.ValAccuracy, tr.FinalTrainLoss)
	}
	return rows, nil
}
