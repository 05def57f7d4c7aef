// Command pasnet-search runs the differentiable cryptographic
// hardware-aware architecture search (paper Algorithm 1) on a backbone
// over the synthetic CIFAR stand-in and reports the derived architecture
// with its modelled private-inference cost.
//
// The latency table behind the search is pluggable: by default the
// paper's analytic ZCU104 model, or a calibrated table measured on this
// machine's live 2PC transport (internal/autodeploy).
//
// Usage:
//
//	pasnet-search -backbone resnet18 -lambda 10 -steps 40
//	pasnet-search -lambda 2,10,50                 # frontier sweep
//	pasnet-search -calibrate lut.json -lambda 10  # probe, save, search
//	pasnet-search -lut lut.json -lambda 2,10,50   # search calibrated
//	pasnet-search -deploy -lambda 10              # full A/B loop
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pasnet/internal/autodeploy"
	"pasnet/internal/core"
	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
)

func main() {
	backbone := flag.String("backbone", "resnet18", "search baseline: vgg16|resnet18|resnet34|resnet50|mobilenetv2")
	lambdaStr := flag.String("lambda", "10", "latency penalty λ (1/s); a comma-separated list sweeps a frontier")
	steps := flag.Int("steps", 40, "search iterations")
	trainSteps := flag.Int("train-steps", 300, "finetune iterations after derivation")
	width := flag.Float64("width", 0.125, "training width multiplier")
	hwRes := flag.Int("hw", 32, "input resolution (search, probe and deploy geometry)")
	dataN := flag.Int("data", 800, "synthetic dataset size")
	firstOrder := flag.Bool("first-order", false, "disable the second-order Hessian correction")
	seed := flag.Uint64("seed", 7, "random seed")
	lutPath := flag.String("lut", "", "calibrated PASLUT artifact to search against (instead of the analytic table)")
	calPath := flag.String("calibrate", "", "run the 2PC probe suite, write the calibrated artifact here, and search against it")
	deploy := flag.Bool("deploy", false, "run the full calibrate→search→train→serve A/B loop (first λ only)")
	flag.Parse()

	lambdas, err := parseLambdas(*lambdaStr)
	if err != nil {
		fatal(err)
	}

	cfg := models.CIFARConfig(*width, *seed+2)
	cfg.InputHW = *hwRes
	d := dataset.Synthetic(dataset.SynthConfig{
		N: *dataN, Classes: 10, C: 3, HW: *hwRes, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: *seed,
	})
	train, val := d.Split(0.5, *seed+1)
	tOpts := nas.DefaultTrainOptions()
	tOpts.Steps = *trainSteps

	if *deploy {
		runDeploy(*backbone, cfg, lambdas[0], *steps, tOpts, *calPath, *seed, train, val)
		return
	}

	// Resolve the latency table. A calibrated table names operators at
	// the geometry that executes under 2PC, so searches against one run
	// with TrainScaleOps — otherwise paper-scale keys would all miss.
	var lut *hwmodel.LUT
	switch {
	case *calPath != "":
		cal, err := autodeploy.Calibrate(autodeploy.CalibrateOptions{
			Backbone: *backbone, ModelCfg: cfg, HW: hwmodel.DefaultConfig(), Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		if err := cal.LUT.WriteFile(*calPath, nil); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "calibrated %d operators (plan %s) -> %s\n", cal.Probes, cal.PlanDigest, *calPath)
		lut = cal.LUT
	case *lutPath != "":
		l, sched, err := hwmodel.ReadLUTFile(*lutPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d calibrated operators from %s (source %s)\n", len(l.Entries), *lutPath, l.Source)
		if sched != nil {
			fmt.Fprintf(os.Stderr, "fleet flush model: %.2f ms/flush + %.2f ms/row\n", sched.FlushMS, sched.RowMS)
		}
		lut = l
	}
	if lut != nil {
		cfg.TrainScaleOps = true
	}

	fw := core.Default()
	search := func(lambda float64) (*core.PipelineResult, error) {
		opts := nas.DefaultOptions(*backbone, lambda)
		opts.ModelCfg = cfg
		opts.LUT = lut
		opts.Steps = *steps
		opts.SecondOrder = !*firstOrder
		return fw.SearchAndTrain(opts, tOpts, train, val)
	}

	if len(lambdas) > 1 {
		// Frontier sweep: one line per point, tagged with the latency
		// table that produced it.
		fmt.Printf("%-10s %-6s %-6s %-14s %s\n", "lambda", "poly", "ReLU", "latency(ms)", "latency source")
		for _, lambda := range lambdas {
			res, err := search(lambda)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-10g %-6.2f %-6d %-14.2f %s\n",
				lambda, res.Search.Choices.PolyFraction(), res.Search.ReLUCount,
				res.Search.LatencySec*1e3, res.Search.LatencySource)
		}
		return
	}

	res, err := search(lambdas[0])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("backbone:        %s\n", *backbone)
	fmt.Printf("lambda:          %g\n", lambdas[0])
	fmt.Printf("poly fraction:   %.2f\n", res.Search.Choices.PolyFraction())
	fmt.Printf("ReLU count:      %d\n", res.Search.ReLUCount)
	fmt.Printf("PI latency:      %.2f ms (modelled)\n", res.Search.LatencySec*1e3)
	fmt.Printf("latency source:  %s\n", res.Search.LatencySource)
	fmt.Printf("PI comm:         %.2f MB (modelled)\n", float64(res.Cost.CommBits)/8/1e6)
	fmt.Printf("energy effi:     %.2f 1/(ms·kW)\n", res.EfficiencyPerMsKW)
	fmt.Printf("val top-1:       %.3f (synthetic task)\n", res.Train.ValAccuracy)
	fmt.Println("\nper-slot choices (act slots -> ReLU/X2act, pool slots -> Max/Avg):")
	for id := 0; id < len(res.Search.Choices.Act)+len(res.Search.Choices.Pool); id++ {
		if a, ok := res.Search.Choices.Act[id]; ok {
			fmt.Printf("  slot %-3d act  %s\n", id, actName(a))
		} else if p, ok := res.Search.Choices.Pool[id]; ok {
			fmt.Printf("  slot %-3d pool %s\n", id, poolName(p))
		}
	}
}

// runDeploy drives the full autodeploy loop and prints the A/B table.
func runDeploy(backbone string, cfg models.Config, lambda float64, steps int,
	tOpts nas.TrainOptions, lutPath string, seed uint64, train, val *dataset.Dataset) {
	storeRoot, err := os.MkdirTemp("", "pasnet-autodeploy-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(storeRoot)
	rep, err := autodeploy.RunPipeline(autodeploy.PipelineOptions{
		Backbone: backbone, ModelCfg: cfg, HW: hwmodel.DefaultConfig(),
		Lambda: lambda, SearchSteps: steps, Train: tOpts,
		StoreRoot: storeRoot, LUTPath: lutPath, Seed: seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, train, val)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("backbone: %s  shards: %d  probes: %d  plan: %s  overhead: %.2f ms/query\n",
		rep.Backbone, rep.Shards, rep.Probes, rep.PlanDigest, rep.OverheadMS)
	fmt.Printf("%-12s %-28s %-6s %-6s %-8s %-14s %-14s %-8s %s\n",
		"model", "latency source", "poly", "ReLU", "val", "predicted(ms)", "measured(ms)", "err", fmt.Sprintf("within %.0f%%", rep.Bound*100))
	for _, mr := range rep.Models {
		fmt.Printf("%-12s %-28s %-6.2f %-6d %-8.3f %-14.2f %-14.2f %-8.0f %v\n",
			mr.ID, mr.LatencySource, mr.PolyFraction, mr.ReLUCount, mr.ValAcc,
			mr.PredictedCalibratedMS, mr.MeasuredMS, mr.ErrFrac*100, mr.WithinBound)
	}
	if rep.Sched != nil {
		fmt.Printf("fleet flush model: %.2f ms/flush + %.2f ms/row\n", rep.Sched.FlushMS, rep.Sched.RowMS)
	}
}

func parseLambdas(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -lambda value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no -lambda values")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pasnet-search:", err)
	os.Exit(1)
}

func actName(a models.ActChoice) string {
	if a == models.ActX2 {
		return "X2act"
	}
	return "ReLU"
}

func poolName(p models.PoolChoice) string {
	if p == models.PoolAvg {
		return "AvgPool"
	}
	return "MaxPool"
}
