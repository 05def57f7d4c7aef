package obs_test

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"pasnet/internal/obs"
)

// TestHarvestLUTHandOff pins the feed's side of a harvest: Readings
// reports each key's mean per-row seconds and sample count, and
// HarvestLUT is hwmodel.FitLUT over exactly those readings (the fit's
// arithmetic is hwmodel.TestFitLUT's subject).
func TestHarvestLUTHandOff(t *testing.T) {
	hw := hwmodel.DefaultConfig()
	feed := &obs.OpFeed{}
	shape := hwmodel.OpShape{FI: 8, IC: 16, OC: 16, K: 3, Stride: 1, FO: 8}
	// Two samples at different row counts: per-row mean = (0.010/1 + 0.030/2)/2.
	feed.Record(hwmodel.OpConv, shape, 1, 0.010)
	feed.Record(hwmodel.OpConv, shape, 2, 0.030)
	feed.Record(hwmodel.OpReLU, hwmodel.OpShape{FI: 8, IC: 16}, 4, 0.2)
	// Degenerate inputs are ignored, never harvested.
	feed.Record(hwmodel.OpConv, shape, 0, 0.5)
	feed.Record(hwmodel.OpConv, shape, 1, -0.5)
	if feed.Keys() != 2 || feed.Samples() != 3 {
		t.Fatalf("feed keys %d samples %d, want 2 and 3", feed.Keys(), feed.Samples())
	}
	readings := feed.Readings()
	if len(readings) != 2 || readings[0].Op.Kind != hwmodel.OpConv || readings[1].Op.Kind != hwmodel.OpReLU {
		t.Fatalf("readings %+v, want conv then relu (sorted by key)", readings)
	}
	if rd := readings[0]; rd.Count != 2 || math.Abs(rd.RowSec-(0.010+0.015)/2) > 1e-15 {
		t.Fatalf("conv reading %+v, want mean per-row 0.0125 over 2 samples", rd)
	}
	if rd := readings[1]; rd.Count != 1 || math.Abs(rd.RowSec-0.05) > 1e-15 {
		t.Fatalf("relu reading %+v, want 0.05 per row over 1 sample", rd)
	}

	lut, err := feed.HarvestLUT(hw, "harvested/test")
	if err != nil {
		t.Fatal(err)
	}
	if want := hwmodel.FitLUT(hw, "harvested/test", readings); !reflect.DeepEqual(lut, want) {
		t.Fatalf("harvested LUT %+v != FitLUT over the feed's readings %+v", lut, want)
	}
	if lut, err := feed.HarvestLUT(hw, ""); err != nil || lut.Source != "harvested/obs" {
		t.Fatalf("default source: %v, err %v", lut, err)
	}
	empty := &obs.OpFeed{}
	if _, err := empty.HarvestLUT(hw, ""); err == nil {
		t.Fatal("harvest of an empty feed succeeded")
	}
}

// TestHarvestLUTRoundTripIntoSearch is the acceptance path end to end: a
// populated feed harvests into a LUT, the LUT survives the PASLUT1
// artifact round-trip, and a short NAS run consumes the read-back table
// and stamps its source — live measurements steering the next search.
func TestHarvestLUTRoundTripIntoSearch(t *testing.T) {
	hw := hwmodel.DefaultConfig()
	cfg := models.CIFARConfig(0.0625, 7)
	cfg.InputHW = 8
	cfg.NumClasses = 4

	// Materialize the supernet's op keys, then pretend a serving router
	// sampled every one of them.
	sn, err := nas.BuildSupernet("resnet18", cfg, hw)
	if err != nil {
		t.Fatal(err)
	}
	feed := &obs.OpFeed{}
	keys := 0
	for _, m := range sn.Mixed {
		for _, kind := range m.Kinds {
			feed.Record(kind, m.Slot.Shape, 4, 0.004)
			keys++
		}
	}
	for _, op := range sn.Model.Ops {
		feed.Record(op.Kind, op.Shape, 4, 0.004)
		keys++
	}
	if keys == 0 {
		t.Fatal("supernet exposed no ops to sample")
	}
	lut, err := feed.HarvestLUT(hw, "harvested/obs-test")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "harvested.paslut")
	if err := lut.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	back, _, err := hwmodel.ReadLUTFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Source != "harvested/obs-test" {
		t.Fatalf("read-back source %q", back.Source)
	}
	if len(back.Entries) != len(lut.Entries) {
		t.Fatalf("read-back has %d entries, wrote %d", len(back.Entries), len(lut.Entries))
	}

	opts := nas.DefaultOptions("resnet18", 1.0)
	opts.ModelCfg = cfg
	opts.LUT = back
	opts.Steps = 4
	opts.BatchSize = 8
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 32, Classes: 4, C: 3, HW: 8, LatentDim: 8, TeacherHidden: 16,
		TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})
	res, err := nas.Search(opts, d, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySource != "harvested/obs-test" {
		t.Fatalf("search latency source %q, want the harvested LUT's label", res.LatencySource)
	}
	if math.IsNaN(res.LatencySec) || res.LatencySec < 0 {
		t.Fatalf("search latency %v under harvested LUT", res.LatencySec)
	}
}
