package autodeploy

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
)

func testDataset() *dataset.Dataset {
	return dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: 8, LatentDim: 8, TeacherHidden: 16,
		TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})
}

func testModelCfg() models.Config {
	cfg := models.CIFARConfig(0.0625, 7)
	cfg.InputHW = 8
	cfg.NumClasses = 4
	return cfg
}

// TestCalibratePlanDeterministic pins the probe suite's determinism: the
// same options must produce the same plan digest and the same operator
// key set (wall times naturally vary run to run), and a different seed a
// different digest.
func TestCalibratePlanDeterministic(t *testing.T) {
	opts := CalibrateOptions{
		Backbone: "resnet18", ModelCfg: testModelCfg(), HW: hwmodel.DefaultConfig(),
		Rows: 2, Reps: 1, Seed: 3,
	}
	a, err := Calibrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.PlanDigest != b.PlanDigest {
		t.Fatalf("plan digests differ under identical options: %s vs %s", a.PlanDigest, b.PlanDigest)
	}
	ak, bk := a.LUT.Keys(), b.LUT.Keys()
	if len(ak) != len(bk) {
		t.Fatalf("key counts differ: %d vs %d", len(ak), len(bk))
	}
	for i := range ak {
		if ak[i] != bk[i] {
			t.Fatalf("key %d differs: %s vs %s", i, ak[i], bk[i])
		}
	}
	for key, c := range a.LUT.Entries {
		if math.IsNaN(c.TotalSec) || math.IsInf(c.TotalSec, 0) || c.TotalSec < 0 {
			t.Fatalf("entry %s has degenerate latency %v", key, c.TotalSec)
		}
	}
	if len(a.LUT.Scales) == 0 {
		t.Fatalf("calibration fitted no per-kind scales")
	}
	if a.Probes != len(a.LUT.Entries) || a.Probes == 0 {
		t.Fatalf("probe count %d does not match %d entries", a.Probes, len(a.LUT.Entries))
	}
	if len(a.PerOp) != a.Probes {
		t.Fatalf("%d per-op checks for %d probes", len(a.PerOp), a.Probes)
	}

	opts.Seed = 4
	c, err := Calibrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.PlanDigest == a.PlanDigest {
		t.Fatalf("plan digest ignores the seed")
	}
}

// TestPipelineEndToEnd runs the whole loop on the in-process loopback:
// calibrate, search against both tables, train both winners, register
// them into a live gateway on preprocessed shard stores, serve timed
// queries, and write the LUT artifact. Served logits must
// match plaintext; the prediction-accuracy bound is reported, not
// asserted (wall times on shared CI machines are advisory).
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	lutPath := filepath.Join(dir, "calibrated.lut.json")
	d := testDataset()
	rep, err := RunPipeline(PipelineOptions{
		Backbone: "resnet18", ModelCfg: testModelCfg(), HW: hwmodel.DefaultConfig(),
		Lambda: 1.0, SearchSteps: 6, SearchBatch: 8,
		Train:     nas.TrainOptions{Steps: 20, BatchSize: 8, LR: 0.02, Momentum: 0.9, WeightDecay: 3e-4, Seed: 21},
		CalibReps: 1, Queries: 4, Shards: 1,
		StoreRoot: filepath.Join(dir, "stores"), LUTPath: lutPath,
		Seed: 5, Logf: t.Logf,
	}, d, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Models) != 2 {
		t.Fatalf("%d model reports, want 2", len(rep.Models))
	}
	if rep.Models[0].ID != "analytic" || rep.Models[1].ID != "calibrated" {
		t.Fatalf("model ids %s/%s, want analytic/calibrated", rep.Models[0].ID, rep.Models[1].ID)
	}
	if rep.Models[0].LatencySource != hwmodel.AnalyticSource {
		t.Fatalf("analytic winner priced by %q", rep.Models[0].LatencySource)
	}
	if !strings.HasPrefix(rep.Models[1].LatencySource, "calibrated/") {
		t.Fatalf("calibrated winner priced by %q", rep.Models[1].LatencySource)
	}
	for _, mr := range rep.Models {
		if mr.MaxAbsErr > 0.05 {
			t.Fatalf("%s: served logits off plaintext by %v", mr.ID, mr.MaxAbsErr)
		}
		if mr.MeasuredMS <= 0 || mr.PredictedCalibratedMS <= 0 || mr.PredictedAnalyticMS <= 0 {
			t.Fatalf("%s: non-positive latency report: %+v", mr.ID, mr)
		}
		if mr.Queries != 4 {
			t.Fatalf("%s: %d timed queries, want 4", mr.ID, mr.Queries)
		}
	}
	if rep.Probes == 0 || len(rep.PlanDigest) != 16 {
		t.Fatalf("calibration summary missing: probes %d digest %q", rep.Probes, rep.PlanDigest)
	}
	if rep.Sched == nil || rep.Sched.FlushMS <= 0 {
		t.Fatalf("no scheduler fit harvested after serving: %+v", rep.Sched)
	}

	// The artifact written by the pipeline must load back as the same
	// calibrated table, with the harvested scheduler fit attached.
	lut, sched, err := hwmodel.ReadLUTFile(lutPath)
	if err != nil {
		t.Fatal(err)
	}
	if lut.Source != rep.Models[1].LatencySource {
		t.Fatalf("artifact source %q, report says %q", lut.Source, rep.Models[1].LatencySource)
	}
	if len(lut.Entries) != rep.Probes {
		t.Fatalf("artifact has %d entries, calibration measured %d", len(lut.Entries), rep.Probes)
	}
	if sched == nil || sched.FlushMS != rep.Sched.FlushMS {
		t.Fatalf("artifact sched fit %+v, report says %+v", sched, rep.Sched)
	}
}
