// Package autodeploy closes the paper's search→train→serve loop against
// measured 2PC latencies. The analytic hwmodel.Config prices operators
// for the ZCU104 accelerator of Table I; a deployment running on
// different hardware (or the in-process reference executor) has a
// completely different cost surface, so a search regularized by the
// analytic table optimizes for the wrong machine. This package
// (1) calibrates: runs a deterministic per-operator probe suite through
// the pi/mpc stack on the live transport — in the exact protocol mode
// the deployment will serve under (preprocessed stores, fixed weight
// masks) — and fits a hwmodel.LUT whose entries are measured wall
// times; (2) searches: feeds that LUT into nas.Search; (3) deploys:
// trains the winner, registers it into a gateway.Registry next to the
// analytic-table winner, and A/Bs both under the dispatch router,
// reporting predicted-vs-measured online ms/query.
package autodeploy

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/obs"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// CalibrateOptions configures one probe-suite run.
type CalibrateOptions struct {
	// Backbone is the architecture whose slot geometries the probes cover
	// ("resnet18", ...).
	Backbone string
	// ModelCfg is the deployment's model configuration. TrainScaleOps is
	// forced on: calibration keys must name the channel/resolution
	// geometry that actually executes under 2PC, not the paper-scale
	// table geometry.
	ModelCfg models.Config
	// HW is the analytic model used for the LUT's fallback, the per-kind
	// scale fit, and the comp/comm split of measured entries.
	HW hwmodel.Config
	// Rows is the probe batch row count. Match it to the deployment's
	// flush rows (1 for the single-query serving path): per-op times are
	// amortized per row, and batching amortizes protocol rounds, so a
	// mismatched row count calibrates a different cost surface.
	Rows int
	// Reps repeats each probe model; each op takes its fastest rep
	// (minimum wall time rejects scheduler noise). Default 2.
	Reps int
	// FixedMasks selects the fixed weight-mask protocol. Must match the
	// deployment's registry mode — the two protocols open different
	// numbers of values per flush and time differently.
	FixedMasks bool
	// Seed drives probe weight init, probe inputs and the 2PC dealer.
	Seed uint64
}

// OpCheck is one operator's analytic-vs-measured comparison.
type OpCheck struct {
	// Key is the operator's LUT key (kind + geometry).
	Key string `json:"key"`
	// AnalyticMS and MeasuredMS are the analytic model's prediction and
	// the calibrated measurement for one row, in milliseconds.
	AnalyticMS float64 `json:"analytic_ms"`
	MeasuredMS float64 `json:"measured_ms"`
	// ErrFrac is |analytic−measured| / measured (0 when measured is 0).
	ErrFrac float64 `json:"err_frac"`
}

// Calibration is the result of one probe-suite run.
type Calibration struct {
	// LUT is the fitted table: measured entries for every probed
	// operator, per-kind scales for analytic fallback on unprobed
	// geometries, and a calibration Source label.
	LUT *hwmodel.LUT
	// OverheadSec is the measured per-row online cost outside the
	// operator list — input sharing, output reconstruction, pack/unpack.
	// Serving pays it once per query, so end-to-end prediction adds it
	// to the operator sum.
	OverheadSec float64
	// PlanDigest fingerprints the probe plan — backbone, probe
	// parameters, and every probed operator key. Two runs with the same
	// options produce the same digest (the suite is deterministic);
	// wall-time readings naturally differ.
	PlanDigest string
	// Probes is the number of distinct operator keys measured.
	Probes int
	// PerOp compares the analytic model against each measurement,
	// sorted by key.
	PerOp []OpCheck
}

// probeVariants are the backbone configurations the suite executes. Two
// variants cover every slot candidate the search can pick — ReLU vs
// X²act at activation slots, max vs average at pooling slots — while
// the fixed operators (convs, FC, residual adds, GAP) appear in both
// and keep their fastest reading.
var probeVariants = []struct {
	label string
	act   models.ActChoice
	pool  models.PoolChoice
}{
	{"relu-max", models.ActReLU, models.PoolMax},
	{"x2-avg", models.ActX2, models.PoolAvg},
}

// Calibrate runs the probe suite and fits a calibrated LUT.
func Calibrate(opts CalibrateOptions) (*Calibration, error) {
	if opts.Backbone == "" {
		return nil, fmt.Errorf("autodeploy: no backbone to calibrate")
	}
	if err := opts.HW.Validate(); err != nil {
		return nil, fmt.Errorf("autodeploy: analytic fallback: %w", err)
	}
	if opts.Rows < 1 {
		opts.Rows = 1
	}
	if opts.Reps < 1 {
		opts.Reps = 2
	}
	cfg := opts.ModelCfg
	cfg.TrainScaleOps = true

	// best holds each key's fastest reading: per rep a key reads the mean
	// per-row seconds over its occurrences (identical layers share a key
	// by construction; the model prices them identically, so their mean
	// is the right single reading), and the minimum across reps and
	// variants rejects scheduler noise.
	best := map[string]hwmodel.Reading{}
	overhead := math.Inf(1)
	for vi, v := range probeVariants {
		vcfg := cfg
		vcfg.Act = v.act
		vcfg.Pool = v.pool
		m, err := models.ByName(opts.Backbone, vcfg)
		if err != nil {
			return nil, fmt.Errorf("autodeploy: probe variant %s: %w", v.label, err)
		}
		x := tensor.New(opts.Rows, vcfg.InputC, vcfg.InputHW, vcfg.InputHW).
			RandNorm(rng.New(rng.MixSeed(opts.Seed, 0x70726f6265, uint64(vi))), 0.5)
		for rep := 0; rep < opts.Reps; rep++ {
			runSeed := rng.MixSeed(opts.Seed, uint64(vi)+1, uint64(rep)+1)
			feed := &obs.OpFeed{}
			res, err := pi.RunOpt(m, opts.HW, x, runSeed, pi.RunOptions{
				// Preprocess matters for fidelity, not just speed: the
				// live-dealer path generates correlations inline during
				// the online phase, which would inflate every op reading
				// relative to the store-replay serving path.
				Preprocess: true,
				FixedMasks: opts.FixedMasks,
				OpFeed:     feed,
			})
			if err != nil {
				return nil, fmt.Errorf("autodeploy: probe %s rep %d: %w", v.label, rep, err)
			}
			// The run's online time per row not attributed to any traced
			// operator: input sharing, output reconstruction, pack/unpack.
			ovh := res.OnlineSeconds / float64(opts.Rows)
			for _, rd := range feed.Readings() {
				ovh -= rd.RowSec * float64(rd.Count)
				key := rd.Op.Key()
				if b, ok := best[key]; !ok || rd.RowSec < b.RowSec {
					best[key] = rd
				}
			}
			overhead = min(overhead, max(ovh, 0))
		}
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("autodeploy: probe suite traced no operators")
	}
	readings := make([]hwmodel.Reading, 0, len(best))
	for _, rd := range best {
		readings = append(readings, rd)
	}
	sort.Slice(readings, func(i, j int) bool { return readings[i].Op.Key() < readings[j].Op.Key() })

	cal := &Calibration{OverheadSec: overhead, Probes: len(readings)}
	source := fmt.Sprintf("calibrated/%s/hw%d", opts.Backbone, opts.ModelCfg.InputHW)
	cal.LUT = hwmodel.FitLUT(opts.HW, source, readings)
	cal.PerOp = opChecks(opts.HW, readings)
	cal.PlanDigest = planDigest(opts, readings)
	return cal, nil
}

// opChecks compares the analytic model against each measured key.
func opChecks(hw hwmodel.Config, readings []hwmodel.Reading) []OpCheck {
	checks := make([]OpCheck, len(readings))
	for i, rd := range readings {
		ana := hw.Op(rd.Op.Kind, rd.Op.Shape).TotalSec
		c := OpCheck{Key: rd.Op.Key(), AnalyticMS: ana * 1e3, MeasuredMS: rd.RowSec * 1e3}
		if rd.RowSec > 0 {
			c.ErrFrac = math.Abs(ana-rd.RowSec) / rd.RowSec
		}
		checks[i] = c
	}
	return checks
}

// planDigest fingerprints the probe plan: options that shape the suite
// plus every probed key, in sorted order. FNV-1a over the joined text.
func planDigest(opts CalibrateOptions, readings []hwmodel.Reading) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "PASCAL1|%s|rows=%d|reps=%d|fixed=%v|seed=%d|",
		opts.Backbone, opts.Rows, opts.Reps, opts.FixedMasks, opts.Seed)
	for _, rd := range readings {
		fmt.Fprintf(h, "%s|", rd.Op.Key())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
