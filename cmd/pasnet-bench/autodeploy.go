package main

import (
	"fmt"
	"os"
	"time"

	"pasnet/internal/autodeploy"
	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/kernel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
)

// autodeployReport is the BENCH_autodeploy.json schema: the closed
// search→train→serve loop's trajectory file. The headline is the
// calibrated table's end-to-end fidelity — predicted online ms/query
// within autodeploy.PredictionBound of the value measured through the
// live gateway — next to the analytic table's winner served under
// identical conditions, plus the per-operator analytic-vs-measured
// error the calibration corrects.
type autodeployReport struct {
	GeneratedUnix int64 `json:"generated_unix"`
	Workers       int   `json:"workers"`
	*autodeploy.Report
}

// autodeployBench runs the full calibrate→search→train→register→serve
// loop at demo scale on the in-process loopback and publishes the A/B
// report. Per-shard preprocessed stores and fixed weight masks — the
// deployment protocol mode — are exercised end to end.
func autodeployBench(c *config) error {
	out := c.out
	storeRoot, err := os.MkdirTemp("", "pasnet-bench-autodeploy-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeRoot)

	cfg := models.CIFARConfig(0.0625, 7)
	cfg.InputHW = benchDemoHW
	cfg.NumClasses = 4
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: benchDemoHW, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})
	tOpts := nas.DefaultTrainOptions()
	tOpts.Steps = 20
	tOpts.BatchSize = 8
	// LR 0.01: a 20-step finetune at 0.02 can blow searched mixed
	// ReLU/X² stacks past the 32-bit ring's ±2^19 representable range,
	// and a wrapped serving path would A/B garbage logits.
	tOpts.LR = 0.01

	fmt.Fprintf(out, "Latency-calibrated NAS→deploy loop (workers=%d, %s at %d×%d):\n",
		kernel.Workers(), benchBackbone, benchDemoHW, benchDemoHW)
	rep, err := autodeploy.RunPipeline(autodeploy.PipelineOptions{
		Backbone: benchBackbone, ModelCfg: cfg, HW: hwmodel.DefaultConfig(),
		Lambda: 1.0, SearchSteps: 12, SearchBatch: 8, Train: tOpts,
		CalibReps: 2, Queries: 8, Shards: 1, StoreRoot: storeRoot, Seed: 5,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, "  %s\n", fmt.Sprintf(format, args...))
		},
	}, d, d)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\n  %-12s %-28s %-6s %-8s %14s %14s %8s %s\n",
		"model", "latency source", "poly", "val", "predicted(ms)", "measured(ms)", "err", fmt.Sprintf("within %.0f%%", rep.Bound*100))
	for _, mr := range rep.Models {
		fmt.Fprintf(out, "  %-12s %-28s %-6.2f %-8.3f %14.2f %14.2f %7.0f%% %v\n",
			mr.ID, mr.LatencySource, mr.PolyFraction, mr.ValAcc,
			mr.PredictedCalibratedMS, mr.MeasuredMS, mr.ErrFrac*100, mr.WithinBound)
	}
	fmt.Fprintf(out, "\n  per-operator analytic vs measured (worst 5 of %d by error):\n", len(rep.PerOp))
	worst := append([]autodeploy.OpCheck(nil), rep.PerOp...)
	for i := 0; i < len(worst); i++ {
		for j := i + 1; j < len(worst); j++ {
			if worst[j].ErrFrac > worst[i].ErrFrac {
				worst[i], worst[j] = worst[j], worst[i]
			}
		}
	}
	if len(worst) > 5 {
		worst = worst[:5]
	}
	for _, c := range worst {
		fmt.Fprintf(out, "    %-44s analytic %8.3fms  measured %8.3fms  err %6.0f%%\n",
			c.Key, c.AnalyticMS, c.MeasuredMS, c.ErrFrac*100)
	}
	if rep.Sched != nil {
		fmt.Fprintf(out, "  fleet flush model: %.2f ms/flush + %.2f ms/row\n", rep.Sched.FlushMS, rep.Sched.RowMS)
	}

	return writeBenchJSON(out, c.benchJSON, "autodeploy", autodeployReport{
		GeneratedUnix: time.Now().Unix(),
		Workers:       kernel.Workers(),
		Report:        rep,
	})
}
