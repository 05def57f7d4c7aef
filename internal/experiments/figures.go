package experiments

import (
	"io"
	"sort"

	"pasnet/internal/baselines"
	"pasnet/internal/hwmodel"
	"pasnet/internal/nas"
)

// Fig6Point is one point of the accuracy-vs-ReLU-count trade-off.
type Fig6Point struct {
	Backbone  string
	ReLUCount int
	Accuracy  float64
	Setting   string
}

// Fig6Pareto regenerates Fig. 6: the per-backbone search archive reduced
// to its accuracy-ReLU Pareto frontier. It reuses Fig. 5's rows as the
// archive (the paper likewise draws Fig. 6 from the search results).
func Fig6Pareto(rows []Fig5Row) []Fig6Point {
	byBackbone := map[string][]baselines.Point{}
	for _, r := range rows {
		byBackbone[r.Backbone] = append(byBackbone[r.Backbone], baselines.Point{
			Method:    r.Backbone,
			ReLUCount: r.ReLUCount,
			Accuracy:  r.Accuracy,
			Detail:    r.Setting,
		})
	}
	var out []Fig6Point
	for backbone, pts := range byBackbone {
		for _, p := range baselines.Pareto(pts) {
			out = append(out, Fig6Point{
				Backbone:  backbone,
				ReLUCount: p.ReLUCount,
				Accuracy:  p.Accuracy,
				Setting:   p.Detail,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Backbone != out[j].Backbone {
			return out[i].Backbone < out[j].Backbone
		}
		return out[i].ReLUCount < out[j].ReLUCount
	})
	return out
}

// Fig7Series maps method name to its accuracy-vs-ReLU-count curve.
type Fig7Series map[string][]baselines.Point

// Fig7CrossWork regenerates Fig. 7: PASNet against the SNL, DeepReDuce,
// DELPHI and CryptoNAS-style ReLU-reduction baselines on one backbone.
func Fig7CrossWork(p Profile, log io.Writer) (Fig7Series, error) {
	train, val := p.data()
	backbone := p.Backbones[0]
	cfg := baselines.Config{
		Backbone:  backbone,
		ModelCfg:  p.modelCfg(p.Seed + 6),
		Train:     train,
		Val:       val,
		TrainOpts: p.trainOpts(),
	}
	fractions := []float64{0, 0.5, 0.8, 1}
	out := Fig7Series{}

	delphi, err := baselines.Delphi(cfg, fractions)
	if err != nil {
		return nil, err
	}
	out["DELPHI"] = delphi
	progress(log, "fig7 DELPHI done (%d points)\n", len(delphi))

	snl, err := baselines.SNL(cfg, fractions)
	if err != nil {
		return nil, err
	}
	out["SNL"] = snl
	progress(log, "fig7 SNL done (%d points)\n", len(snl))

	dr, err := baselines.DeepReduce(cfg, 3)
	if err != nil {
		return nil, err
	}
	out["DeepReDuce"] = dr
	progress(log, "fig7 DeepReDuce done (%d points)\n", len(dr))

	widths := []float64{p.WidthMult, p.WidthMult / 2, p.WidthMult / 4}
	cn, err := baselines.CryptoNAS(cfg, widths)
	if err != nil {
		return nil, err
	}
	out["CryptoNAS"] = cn
	progress(log, "fig7 CryptoNAS done (%d points)\n", len(cn))

	sOpts := p.searchOpts(backbone, 0)
	pas, err := baselines.PASNet(cfg, p.Lambdas, sOpts)
	if err != nil {
		return nil, err
	}
	out["PASNet"] = pas
	progress(log, "fig7 PASNet done (%d points)\n", len(pas))
	return out, nil
}

// LowReLUAdvantage summarizes Fig. 7's claim: among the points with the
// fewest ReLUs (here: zero), PASNet-style polynomial replacement should
// hold accuracy better than identity-based linearization. It returns the
// accuracy at (or nearest to) zero ReLUs per method.
func LowReLUAdvantage(series Fig7Series) map[string]float64 {
	out := map[string]float64{}
	for method, pts := range series {
		best := baselines.Point{ReLUCount: 1 << 62}
		for _, p := range pts {
			if p.ReLUCount < best.ReLUCount {
				best = p
			}
		}
		out[method] = best.Accuracy
	}
	return out
}

// AblationRow compares second-order versus first-order search.
type AblationRow struct {
	Mode       string
	Accuracy   float64
	LatencyMS  float64
	PolyFrac   float64
	StepsTaken int
}

// DARTSOrderAblation runs the same search first- and second-order.
func DARTSOrderAblation(p Profile, hw hwmodel.Config) ([]AblationRow, error) {
	train, val := p.data()
	var rows []AblationRow
	for _, second := range []bool{false, true} {
		opts := p.searchOpts(p.Backbones[0], p.Lambdas[len(p.Lambdas)-1])
		opts.SecondOrder = second
		res, err := nas.Search(opts, train, val)
		if err != nil {
			return nil, err
		}
		tr, err := nas.TrainModel(res.Derived, train, val, p.trainOpts())
		if err != nil {
			return nil, err
		}
		mode := "first-order"
		if second {
			mode = "second-order"
		}
		rows = append(rows, AblationRow{
			Mode:       mode,
			Accuracy:   tr.ValAccuracy,
			LatencyMS:  res.LatencySec * 1e3,
			PolyFrac:   res.Choices.PolyFraction(),
			StepsTaken: len(res.History),
		})
	}
	return rows, nil
}
