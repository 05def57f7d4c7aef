package hwmodel

import (
	"math"
	"testing"
)

// TestFitLUT pins the one fitter's arithmetic per reading: measured
// TotalSec, comp/comm split pro-rata to the analytic model and never
// negative, traffic copied from the analytic model, per-kind scales from
// the summed readings, and a result the PASLUT1 artifact round-trips.
func TestFitLUT(t *testing.T) {
	hw := DefaultConfig()
	conv := NetOp{Kind: OpConv, Shape: OpShape{FI: 8, IC: 16, OC: 16, K: 3, Stride: 1, FO: 8}}
	conv2 := NetOp{Kind: OpConv, Shape: OpShape{FI: 4, IC: 32, OC: 32, K: 3, Stride: 1, FO: 4}}
	relu := NetOp{Kind: OpReLU, Shape: OpShape{FI: 8, IC: 16}}
	add := NetOp{Kind: OpAdd, Shape: OpShape{FI: 8, IC: 16}}
	ident := NetOp{Kind: OpIdentity}
	fc := NetOp{Kind: OpFC, Shape: OpShape{IC: 64, OC: 10}}
	readings := []Reading{
		{Op: conv, RowSec: 0.0125, Count: 2},
		{Op: conv2, RowSec: 0.004, Count: 1},
		{Op: relu, RowSec: 0.25, Count: 3},
		// Analytic split is all-compute: the comm remainder must clamp at
		// zero whatever the division rounds to.
		{Op: add, RowSec: 1e-7 / 3, Count: 1},
		// No analytic cost at all: nothing to split pro-rata, no scale.
		{Op: ident, RowSec: 0.001, Count: 1},
		// Measured zero: a legitimate entry, but not a usable scale.
		{Op: fc, RowSec: 0, Count: 1},
	}
	lut := FitLUT(hw, "calibrated/unit", readings)
	if lut.Source != "calibrated/unit" {
		t.Fatalf("source %q", lut.Source)
	}
	if len(lut.Entries) != len(readings) {
		t.Fatalf("%d entries from %d readings", len(lut.Entries), len(readings))
	}
	for _, rd := range readings {
		c, ok := lut.Entries[rd.Op.Key()]
		if !ok {
			t.Fatalf("no entry for %s", rd.Op.Key())
		}
		ana := hw.Op(rd.Op.Kind, rd.Op.Shape)
		if c.TotalSec != rd.RowSec {
			t.Errorf("%s: TotalSec %v, want the reading %v", rd.Op.Key(), c.TotalSec, rd.RowSec)
		}
		if c.CompSec < 0 || c.CommSec < 0 {
			t.Errorf("%s: negative split comp %v comm %v", rd.Op.Key(), c.CompSec, c.CommSec)
		}
		if math.Abs(c.CompSec+c.CommSec-c.TotalSec) > 1e-12 {
			t.Errorf("%s: comp %v + comm %v != total %v", rd.Op.Key(), c.CompSec, c.CommSec, c.TotalSec)
		}
		wantComp := rd.RowSec
		if ana.TotalSec > 0 {
			wantComp = rd.RowSec * ana.CompSec / ana.TotalSec
		}
		if math.Abs(c.CompSec-wantComp) > 1e-15 {
			t.Errorf("%s: CompSec %v, want pro-rata %v", rd.Op.Key(), c.CompSec, wantComp)
		}
		if c.CommBits != ana.CommBits || c.Rounds != ana.Rounds {
			t.Errorf("%s: traffic (%v bits, %v rounds) not copied from analytic (%v, %v)",
				rd.Op.Key(), c.CommBits, c.Rounds, ana.CommBits, ana.Rounds)
		}
	}
	if c := lut.Entries[add.Key()]; c.CommSec != 0 {
		t.Errorf("all-compute op got CommSec %v", c.CommSec)
	}

	// One scale per kind with both sums positive: Σ measured / Σ analytic.
	wantScales := map[string]float64{
		OpConv.String(): (0.0125 + 0.004) / (hw.Op(conv.Kind, conv.Shape).TotalSec + hw.Op(conv2.Kind, conv2.Shape).TotalSec),
		OpReLU.String(): 0.25 / hw.Op(relu.Kind, relu.Shape).TotalSec,
		OpAdd.String():  (1e-7 / 3) / hw.Op(add.Kind, add.Shape).TotalSec,
	}
	if len(lut.Scales) != len(wantScales) {
		t.Fatalf("scales %v, want kinds %v", lut.Scales, wantScales)
	}
	for kind, want := range wantScales {
		if got := lut.Scales[kind]; math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s scale %v, want %v", kind, got, want)
		}
	}
	// An unprobed geometry falls back to the rescaled analytic cost.
	miss := NetOp{Kind: OpReLU, Shape: OpShape{FI: 4, IC: 8}}
	if got, want := lut.Cost(miss).TotalSec, hw.Op(miss.Kind, miss.Shape).TotalSec*wantScales[OpReLU.String()]; math.Abs(got-want) > 1e-12*want {
		t.Errorf("unprobed relu cost %v, want rescaled analytic %v", got, want)
	}

	data, err := lut.EncodeJSON(nil)
	if err != nil {
		t.Fatalf("fitted LUT rejected by the PASLUT1 encoder: %v", err)
	}
	back, _, err := DecodeLUTJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Source != lut.Source || len(back.Entries) != len(lut.Entries) || len(back.Scales) != len(lut.Scales) {
		t.Fatalf("round trip changed the table: %d entries %d scales source %q", len(back.Entries), len(back.Scales), back.Source)
	}
	for key, want := range lut.Entries {
		if back.Entries[key] != want {
			t.Errorf("entry %q round-tripped %+v != %+v", key, back.Entries[key], want)
		}
	}
	for kind, want := range lut.Scales {
		if back.Scales[kind] != want {
			t.Errorf("scale %s round-tripped %v != %v", kind, back.Scales[kind], want)
		}
	}

	if empty := FitLUT(hw, "calibrated/empty", nil); len(empty.Entries) != 0 || empty.Scales != nil {
		t.Fatalf("fit of no readings: %d entries, scales %v", len(empty.Entries), empty.Scales)
	}
}
