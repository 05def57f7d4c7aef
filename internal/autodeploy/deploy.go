package autodeploy

import (
	"fmt"
	"math"
	"time"

	"pasnet/internal/dataset"
	"pasnet/internal/gateway"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// PredictionBound is the stated predicted-vs-measured tolerance for the
// calibrated model: a calibration is considered faithful when the
// predicted online ms/query lands within this fraction of the measured
// value. Reported, not asserted — wall-time A/Bs on shared machines are
// advisory.
const PredictionBound = 0.30

// PipelineOptions configures one calibrate→search→train→serve run.
type PipelineOptions struct {
	// Backbone is the search baseline ("resnet18", ...).
	Backbone string
	// ModelCfg is the deployment configuration; TrainScaleOps is forced
	// on so both searches price the geometry that executes under 2PC.
	ModelCfg models.Config
	// HW is the analytic hardware model (fallback + A/B baseline table).
	HW hwmodel.Config
	// Lambda is the latency penalty λ shared by both searches.
	Lambda float64
	// SearchSteps and SearchBatch drive both searches (defaults 30/8).
	SearchSteps, SearchBatch int
	// Train drives post-search training of both winners; a zero Steps
	// falls back to nas.DefaultTrainOptions.
	Train nas.TrainOptions
	// CalibReps is the probe repetition count (default 2).
	CalibReps int
	// Queries is the number of timed queries served per model (default 8).
	Queries int
	// Shards is the shard fan-out per registered model (default 1).
	Shards int
	// StoreRoot is the per-shard correlation store root; every shard is
	// provisioned its own preprocessed store pair under it (required —
	// the deployment serves the store-replay path, so calibration and
	// serving must run the same protocol phases).
	StoreRoot string
	// LUTPath, when set, writes the calibrated PASLUT artifact (with the
	// harvested scheduler fit) there after serving.
	LUTPath string
	// Seed drives calibration, both searches, shard seeds and queries.
	Seed uint64
	// Logf, when set, receives pipeline progress lines.
	Logf func(format string, args ...any)
}

// ModelReport is one deployed winner's A/B row.
type ModelReport struct {
	// ID is the registry ID ("analytic" or "calibrated") naming which
	// latency table drove this model's search.
	ID string `json:"id"`
	// LatencySource is the search result's table label.
	LatencySource string `json:"latency_source"`
	// PolyFraction and ReLUCount describe the derived architecture.
	PolyFraction float64 `json:"poly_fraction"`
	ReLUCount    int     `json:"relu_count"`
	// ValAcc is post-training validation accuracy.
	ValAcc float64 `json:"val_acc"`
	// PredictedAnalyticMS is the analytic table's online ms/query for
	// this architecture (no serving overhead — the analytic model prices
	// the paper's accelerator, not this deployment).
	PredictedAnalyticMS float64 `json:"predicted_analytic_ms"`
	// PredictedCalibratedMS is the calibrated prediction: calibrated
	// per-op sum plus measured per-query overhead.
	PredictedCalibratedMS float64 `json:"predicted_calibrated_ms"`
	// MeasuredMS is the measured online ms/query through the live
	// gateway (sequential closed-loop client, preprocessed stores).
	MeasuredMS float64 `json:"measured_online_ms_per_query"`
	// ErrFrac is |calibrated prediction − measured| / measured;
	// WithinBound reports ErrFrac ≤ PredictionBound.
	ErrFrac     float64 `json:"prediction_err_frac"`
	WithinBound bool    `json:"within_bound"`
	// MaxAbsErr is the largest |served logit − plaintext logit| over all
	// timed queries (fixed-point correctness of the served path).
	MaxAbsErr float64 `json:"max_abs_err"`
	// Queries is the number of timed queries behind MeasuredMS.
	Queries int `json:"queries"`
}

// Report is the pipeline's outcome: calibration provenance, the
// harvested scheduler fit, and the two winners' A/B rows.
type Report struct {
	Backbone string  `json:"backbone"`
	Shards   int     `json:"shards"`
	Bound    float64 `json:"bound"`
	// PlanDigest, Probes, OverheadMS and PerOp summarize calibration.
	PlanDigest string             `json:"plan_digest"`
	Probes     int                `json:"probes"`
	OverheadMS float64            `json:"overhead_ms_per_query"`
	Scales     map[string]float64 `json:"scales,omitempty"`
	PerOp      []OpCheck          `json:"per_op"`
	// Sched is the serving fleet's fitted flush-latency model, harvested
	// from the router after the A/B (nil when no flush was observed).
	Sched *hwmodel.SchedFit `json:"sched,omitempty"`
	// Models holds the analytic-table and calibrated-table winners.
	Models []ModelReport `json:"models"`
}

// PredictOnlineMS is the calibrated end-to-end prediction for serving
// one query of a derived architecture: the LUT-priced operator sum plus
// the calibration's measured per-query overhead, in milliseconds.
func PredictOnlineMS(lut *hwmodel.LUT, overheadSec float64, ops []hwmodel.NetOp) float64 {
	return (hwmodel.NetworkCostLUT(lut, ops).TotalSec + overheadSec) * 1e3
}

// HarvestSched pools the fleet's fitted flush-latency model — the
// dispatcher's EWMA flush/row estimates, averaged over every lane that
// observed a flush — into a SchedFit for the LUT artifact.
func HarvestSched(status []gateway.ShardStatus) *hwmodel.SchedFit {
	n, flush, row := 0, 0.0, 0.0
	for _, st := range status {
		if st.EWMAFlushMS > 0 {
			flush += st.EWMAFlushMS
			row += st.EWMARowMS
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return &hwmodel.SchedFit{FlushMS: flush / float64(n), RowMS: row / float64(n)}
}

// RunPipeline runs the full loop: calibrate on the live transport,
// search once against the analytic table and once against the
// calibrated LUT, train both winners, register both into one live
// gateway (per-shard preprocessed stores), serve timed queries against
// each, and report predicted vs measured ms/query.
func RunPipeline(opts PipelineOptions, train, val *dataset.Dataset) (*Report, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.StoreRoot == "" {
		return nil, fmt.Errorf("autodeploy: StoreRoot is required (the pipeline serves the preprocessed-store path)")
	}
	if opts.SearchSteps <= 0 {
		opts.SearchSteps = 30
	}
	if opts.SearchBatch <= 0 {
		opts.SearchBatch = 8
	}
	if opts.Queries <= 0 {
		opts.Queries = 8
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Train.Steps <= 0 {
		opts.Train = nas.DefaultTrainOptions()
	}
	cfg := opts.ModelCfg
	cfg.TrainScaleOps = true

	logf("calibrating %s probes on the live transport", opts.Backbone)
	cal, err := Calibrate(CalibrateOptions{
		Backbone: opts.Backbone, ModelCfg: cfg, HW: opts.HW,
		Rows: 1, Reps: opts.CalibReps, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	logf("calibrated %d operators (plan %s, overhead %.2fms/query)",
		cal.Probes, cal.PlanDigest, cal.OverheadSec*1e3)

	rep := &Report{
		Backbone: opts.Backbone, Shards: opts.Shards, Bound: PredictionBound,
		PlanDigest: cal.PlanDigest, Probes: cal.Probes, OverheadMS: cal.OverheadSec * 1e3,
		Scales: cal.LUT.Scales, PerOp: cal.PerOp,
	}

	type winner struct {
		id     string
		search *nas.Result
		train  nas.TrainResult
	}
	tables := []struct {
		id  string
		lut *hwmodel.LUT
	}{
		{"analytic", nil},
		{"calibrated", cal.LUT},
	}
	winners := make([]winner, 0, len(tables))
	for _, tb := range tables {
		sOpts := nas.DefaultOptions(opts.Backbone, opts.Lambda)
		sOpts.ModelCfg = cfg
		sOpts.HW = opts.HW
		sOpts.LUT = tb.lut
		sOpts.Steps = opts.SearchSteps
		sOpts.BatchSize = opts.SearchBatch
		sOpts.Seed = opts.Seed + 11
		res, err := nas.Search(sOpts, train, val)
		if err != nil {
			return nil, fmt.Errorf("autodeploy: %s search: %w", tb.id, err)
		}
		tr, err := nas.TrainModel(res.Derived, train, val, opts.Train)
		if err != nil {
			return nil, fmt.Errorf("autodeploy: train %s winner: %w", tb.id, err)
		}
		logf("%s winner: poly %.2f, relu %d, val acc %.3f (table %s)",
			tb.id, res.Choices.PolyFraction(), res.ReLUCount, tr.ValAccuracy, res.LatencySource)
		winners = append(winners, winner{id: tb.id, search: res, train: tr})
	}

	// Register both winners into one live gateway, every shard on its own
	// preprocessed store pair.
	reg := gateway.NewRegistry()
	input := []int{cfg.InputC, cfg.InputHW, cfg.InputHW}
	for _, w := range winners {
		spec := &gateway.ModelSpec{
			ID: w.id, Model: w.search.Derived, Input: input,
			Shards: gateway.Shards(w.id, opts.Shards, rng.MixSeed(opts.Seed, 0x6465706c6f79, 1), opts.StoreRoot),
		}
		if err := reg.Register(spec); err != nil {
			return nil, fmt.Errorf("autodeploy: register %s winner: %w", w.id, err)
		}
	}
	// Warmup plus timed queries, with margin; all queries are 1-row, so
	// one store geometry covers the fleet.
	flushes := opts.Queries + 2
	if _, err := gateway.WriteShardStores(reg, []int{1}, flushes); err != nil {
		return nil, fmt.Errorf("autodeploy: provision shard stores: %w", err)
	}
	lb := gateway.NewLoopback(reg)
	rt, err := gateway.NewRouter(reg, gateway.RouterOptions{Batch: 1, Dial: lb.Dial})
	if err != nil {
		return nil, fmt.Errorf("autodeploy: connect gateway: %w", err)
	}

	serveErr := func() error {
		for _, w := range winners {
			mr, err := serveModel(rt, w.id, w.search.Derived, train, opts.Queries)
			if err != nil {
				return fmt.Errorf("autodeploy: serve %s winner: %w", w.id, err)
			}
			mr.LatencySource = w.search.LatencySource
			mr.PolyFraction = w.search.Choices.PolyFraction()
			mr.ReLUCount = w.search.ReLUCount
			mr.ValAcc = w.train.ValAccuracy
			mr.PredictedAnalyticMS = hwmodel.NetworkCost(opts.HW, w.search.Derived.Ops).TotalSec * 1e3
			mr.PredictedCalibratedMS = PredictOnlineMS(cal.LUT, cal.OverheadSec, w.search.Derived.Ops)
			if mr.MeasuredMS > 0 {
				mr.ErrFrac = math.Abs(mr.PredictedCalibratedMS-mr.MeasuredMS) / mr.MeasuredMS
			}
			mr.WithinBound = mr.ErrFrac <= PredictionBound
			logf("%s: predicted %.2fms measured %.2fms (err %.0f%%, logits off by %.2e)",
				w.id, mr.PredictedCalibratedMS, mr.MeasuredMS, mr.ErrFrac*100, mr.MaxAbsErr)
			rep.Models = append(rep.Models, mr)
		}
		return nil
	}()
	rep.Sched = HarvestSched(rt.Status())

	closeErr := rt.Close()
	waitErr := lb.Wait()
	for _, err := range []error{serveErr, closeErr, waitErr} {
		if err != nil {
			return nil, err
		}
	}

	if opts.LUTPath != "" {
		if err := cal.LUT.WriteFile(opts.LUTPath, rep.Sched); err != nil {
			return nil, fmt.Errorf("autodeploy: write LUT artifact: %w", err)
		}
		logf("wrote calibrated LUT artifact to %s", opts.LUTPath)
	}
	return rep, nil
}

// serveModel drives one registered winner: a warmup query (first-flush
// setup effects stay out of the timing), then sequential timed queries
// drawn from the dataset, each reply checked against the plaintext
// network.
func serveModel(rt *gateway.Router, id string, m *models.Model, d *dataset.Dataset, queries int) (ModelReport, error) {
	mr := ModelReport{ID: id, Queries: queries}
	query := func(i int) *tensor.Tensor {
		x, _ := d.Batch([]int{i % d.Len()})
		return x
	}
	if _, err := rt.Submit(id, query(0)); err != nil {
		return mr, fmt.Errorf("warmup: %w", err)
	}
	type reply struct {
		x      *tensor.Tensor
		logits []float64
	}
	replies := make([]reply, 0, queries)
	start := time.Now()
	for i := 0; i < queries; i++ {
		x := query(i + 1)
		got, err := rt.Submit(id, x)
		if err != nil {
			return mr, fmt.Errorf("query %d: %w", i, err)
		}
		replies = append(replies, reply{x: x, logits: got})
	}
	mr.MeasuredMS = time.Since(start).Seconds() * 1e3 / float64(queries)
	for i, r := range replies {
		plain := m.Net.Forward(r.x, false)
		if len(r.logits) != plain.Len() {
			return mr, fmt.Errorf("query %d: %d logits, plaintext has %d", i, len(r.logits), plain.Len())
		}
		mr.MaxAbsErr = max(mr.MaxAbsErr, pi.MaxAbsErr(r.logits, plain.Data))
	}
	return mr, nil
}
