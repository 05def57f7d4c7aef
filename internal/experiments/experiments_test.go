package experiments

import (
	"math"
	"strings"
	"testing"

	"pasnet/internal/hwmodel"
)

func TestFig1BreakdownMatchesPaper(t *testing.T) {
	rows := Fig1Breakdown(hwmodel.DefaultConfig())
	if len(rows) != 8 {
		t.Fatalf("rows %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.ModelMS <= 0 {
			t.Errorf("%s: non-positive model latency", r.Name)
		}
		rel := math.Abs(r.ModelMS-r.PaperMS) / r.PaperMS
		if rel > 0.30 {
			t.Errorf("%s: model %.2f ms vs paper %.2f ms (%.0f%% off)",
				r.Name, r.ModelMS, r.PaperMS, rel*100)
		}
	}
	// The headline: ReLU rows dominate the total.
	var relu, total float64
	for _, r := range rows {
		total += r.ModelMS
		if strings.HasPrefix(r.Name, "ReLU") {
			relu += r.ModelMS
		}
	}
	if relu/total < 0.95 {
		t.Fatalf("ReLU fraction %.3f, want > 0.95", relu/total)
	}
}

// TestFig5QuickProfile runs the exact configuration `pasnet-bench -exhibit
// fig5a|fig5b|fig6 -profile quick` runs, VGG-16 included: its fifth 2×2
// pool meets a 1×1 map at InputHW 16, which used to index out of range.
func TestFig5QuickProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	p := QuickProfile()
	rows, err := Fig5(p, hwmodel.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// endpoints + lambda sweep, per backbone.
	if want := len(p.Backbones) * (2 + len(p.Lambdas)); len(rows) != want {
		t.Fatalf("rows %d, want %d", len(rows), want)
	}
	speedups := SpeedupSummary(rows)
	for _, bb := range p.Backbones {
		var allRelu, allPoly *Fig5Row
		for i := range rows {
			r := &rows[i]
			if r.Backbone != bb {
				continue
			}
			if r.Accuracy < 0 || r.Accuracy > 1 {
				t.Fatalf("%s: bad accuracy %v", bb, r.Accuracy)
			}
			switch r.Setting {
			case "all-relu":
				allRelu = r
			case "all-poly":
				allPoly = r
			}
		}
		if allRelu == nil || allPoly == nil {
			t.Fatalf("%s: missing endpoints", bb)
		}
		// Fig. 5(b): all-poly must be a large latency win.
		if s := speedups[bb]; s < 5 {
			t.Fatalf("%s: all-poly speedup %.1f, want > 5", bb, s)
		}
		// Searched models must lie between the endpoints in latency.
		for _, r := range rows {
			if r.Backbone == bb && strings.HasPrefix(r.Setting, "lambda=") {
				if r.LatencyMS > allRelu.LatencyMS+1e-9 || r.LatencyMS < allPoly.LatencyMS-1e-9 {
					t.Fatalf("%s: searched latency %.2f outside [%.2f, %.2f]",
						bb, r.LatencyMS, allPoly.LatencyMS, allRelu.LatencyMS)
				}
			}
		}
	}
}

func TestFig6ParetoFromRows(t *testing.T) {
	rows := []Fig5Row{
		{Backbone: "resnet18", Setting: "a", Accuracy: 0.9, ReLUCount: 100},
		{Backbone: "resnet18", Setting: "b", Accuracy: 0.95, ReLUCount: 50}, // dominates a
		{Backbone: "resnet18", Setting: "c", Accuracy: 0.7, ReLUCount: 0},
		{Backbone: "vgg16", Setting: "d", Accuracy: 0.8, ReLUCount: 10},
	}
	pts := Fig6Pareto(rows)
	for _, p := range pts {
		if p.Backbone == "resnet18" && p.Setting == "a" {
			t.Fatal("dominated point must be filtered")
		}
	}
	if len(pts) != 3 {
		t.Fatalf("pareto points %d, want 3", len(pts))
	}
	// Sorted by backbone then ReLU count.
	for i := 1; i < len(pts); i++ {
		if pts[i].Backbone == pts[i-1].Backbone && pts[i].ReLUCount < pts[i-1].ReLUCount {
			t.Fatal("points not sorted")
		}
	}
}

func TestTable1ModeledColumns(t *testing.T) {
	p := QuickProfile()
	rows, err := Table1(p, hwmodel.DefaultConfig(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // A,B,C,D + 2 reference rows
		t.Fatalf("rows %d, want 6", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	a, b, c, d := byName["PASNet-A"], byName["PASNet-B"], byName["PASNet-C"], byName["PASNet-D"]
	// Order-of-magnitude agreement with the paper's ImageNet columns.
	for _, r := range []Table1Row{a, b, c, d} {
		if r.ImgLatencyS <= 0 || r.ImgCommGB <= 0 {
			t.Fatalf("%s: non-positive modelled cost", r.Variant)
		}
		if ratio := r.ImgLatencyS / r.PaperImgLatencyS; ratio < 0.2 || ratio > 5 {
			t.Errorf("%s: latency %.3fs vs paper %.3fs (off-scale)",
				r.Variant, r.ImgLatencyS, r.PaperImgLatencyS)
		}
		if ratio := r.ImgCommGB / r.PaperImgCommGB; ratio < 0.2 || ratio > 5 {
			t.Errorf("%s: comm %.3fGB vs paper %.3fGB (off-scale)",
				r.Variant, r.ImgCommGB, r.PaperImgCommGB)
		}
	}
	// Shape of the table: A (ResNet18) fastest; C (4 ReLUs) slower than B;
	// every variant beats CryptGPU by a wide margin.
	if !(a.ImgLatencyS < b.ImgLatencyS && b.ImgLatencyS < c.ImgLatencyS) {
		t.Fatalf("latency ordering wrong: A=%.3f B=%.3f C=%.3f",
			a.ImgLatencyS, b.ImgLatencyS, c.ImgLatencyS)
	}
	if c.ImgCommGB <= b.ImgCommGB {
		t.Fatal("PASNet-C (with ReLUs) must communicate more than PASNet-B")
	}
	sp := SpeedupVsCryptGPU(rows)
	for v, s := range sp {
		if s[0] < 10 {
			t.Errorf("%s: only %.1f× faster than CryptGPU, want > 10×", v, s[0])
		}
	}
	if txt := FormatTable1(rows); !strings.Contains(txt, "PASNet-A") {
		t.Fatal("formatted table missing rows")
	}
}

func TestTable1EfficiencyHeadline(t *testing.T) {
	// Paper: "more than 1000 times higher energy efficiency" than CryptGPU.
	rows, err := Table1(QuickProfile(), hwmodel.DefaultConfig(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var bestEffi float64
	for _, r := range rows {
		if !r.Reference && r.ImgEffi > bestEffi {
			bestEffi = r.ImgEffi
		}
	}
	if bestEffi/0.15 < 1000 {
		t.Fatalf("efficiency advantage %.0f×, want > 1000×", bestEffi/0.15)
	}
}

func TestDARTSOrderAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	p := QuickProfile()
	p.Backbones = []string{"resnet18"}
	p.SearchSteps = 6
	p.TrainSteps = 30
	rows, err := DARTSOrderAblation(p, hwmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Mode == rows[1].Mode {
		t.Fatalf("ablation rows %+v", rows)
	}
	for _, r := range rows {
		if r.StepsTaken != p.SearchSteps {
			t.Fatalf("steps %d, want %d", r.StepsTaken, p.SearchSteps)
		}
	}
}

func TestLowReLUAdvantage(t *testing.T) {
	series := Fig7Series{
		"PASNet": {{ReLUCount: 0, Accuracy: 0.9}, {ReLUCount: 100, Accuracy: 0.95}},
		"SNL":    {{ReLUCount: 0, Accuracy: 0.5}, {ReLUCount: 100, Accuracy: 0.93}},
	}
	adv := LowReLUAdvantage(series)
	if adv["PASNet"] != 0.9 || adv["SNL"] != 0.5 {
		t.Fatalf("advantage %v", adv)
	}
}
