package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pasnet/internal/dataset"
	"pasnet/internal/models"
	"pasnet/internal/nas"
)

// benchBackbone is the demo backbone shared by the serving harnesses.
const benchBackbone = "resnet18"

// benchDemoHW is the demo models' spatial size.
const benchDemoHW = 8

// checkBenchDir validates the -benchjson directory (empty: none).
func checkBenchDir(jsonDir string) error {
	if jsonDir == "" {
		return nil
	}
	st, err := os.Stat(jsonDir)
	if err != nil {
		return fmt.Errorf("benchjson dir: %w", err)
	}
	if !st.IsDir() {
		return fmt.Errorf("benchjson target %s is not a directory", jsonDir)
	}
	return nil
}

// trainDemoBackbone deterministically trains the small demo backbone on
// the shared synthetic task, so the serving harnesses measure the same
// workload.
func trainDemoBackbone() (*models.Model, error) {
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = benchDemoHW
	cfg.NumClasses = 4
	cfg.Act = models.ActX2
	m, err := models.ByName(benchBackbone, cfg)
	if err != nil {
		return nil, err
	}
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: benchDemoHW, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})
	opts := nas.DefaultTrainOptions()
	opts.Steps = 20
	opts.BatchSize = 8
	if _, err := nas.TrainModel(m, d, d, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// writeBenchJSON writes rep as BENCH_<exhibit>.json into jsonDir; an empty
// jsonDir means stdout only.
func writeBenchJSON(out io.Writer, jsonDir, exhibit string, rep any) error {
	if jsonDir == "" {
		return nil
	}
	path := filepath.Join(jsonDir, "BENCH_"+exhibit+".json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", path)
	return nil
}
