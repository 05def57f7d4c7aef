package hwmodel

import (
	"fmt"
	"sort"
)

// NetOp is one operator instance inside a network, as consumed by the
// latency model and the NAS latency regularizer.
type NetOp struct {
	// Name is a human-readable label ("conv1", "relu3", ...).
	Name string
	// Kind is the operator type.
	Kind OpKind
	// Shape is the operator geometry.
	Shape OpShape
}

// Key returns the LUT key for the op: kind plus geometry (name excluded so
// identical layers share one entry, as in the paper's "latency loop-up
// table").
func (o NetOp) Key() string {
	return fmt.Sprintf("%s/FI%d-IC%d-OC%d-K%d-S%d-FO%d-G%d",
		o.Kind, o.Shape.FI, o.Shape.IC, o.Shape.OC, o.Shape.K, o.Shape.Stride, o.Shape.FO, o.Shape.Groups)
}

// AnalyticSource labels a LUT whose entries come from the closed-form
// hardware model alone (no measurement).
const AnalyticSource = "analytic"

// LUT is the latency lookup table Lat(OP): memoized operator costs for a
// fixed hardware configuration. An analytic LUT fills itself from the
// Config equations on demand; a calibrated LUT (built by FitLUT from
// measured 2PC wall times, or loaded from a serialized artifact) carries
// measured entries for the probed keys and falls back to the analytic
// equations — scaled by the per-kind measured/analytic ratio in Scales
// when one was fitted — for keys the probe suite never covered.
type LUT struct {
	// Config is the hardware model behind the analytic fallback (and, for
	// an analytic table, every entry).
	Config Config
	// Entries maps NetOp.Key() to cost.
	Entries map[string]Cost
	// Scales maps OpKind.String() to a fitted measured/analytic latency
	// ratio. On a key miss the analytic cost's time fields are multiplied
	// by the kind's scale before memoization, so a calibrated table stays
	// anchored to measurement even off the probed geometries. Empty or
	// missing kinds fall back to the unscaled analytic cost.
	Scales map[string]float64
	// Source labels the table's provenance: AnalyticSource for the pure
	// model, or a calibration label (e.g. "calibrated/resnet18-k4").
	Source string
}

// NewLUT returns an empty analytic table for the configuration.
func NewLUT(cfg Config) *LUT {
	return &LUT{Config: cfg, Entries: make(map[string]Cost), Source: AnalyticSource}
}

// Reading is one operator key's measured online latency, as a per-op
// tracer reports it (obs.OpFeed.Readings).
type Reading struct {
	// Op names the operator; Op.Key() is the LUT key the reading fills.
	Op NetOp
	// RowSec is the mean wall seconds per batch row over Count timings.
	RowSec float64
	// Count is the number of timings behind the mean.
	Count int64
}

// FitLUT builds a calibrated table from measured readings, one per key:
// each entry's TotalSec is the reading's RowSec, split into comp/comm
// pro-rata to the analytic model hw (measurement sees only wall time)
// with traffic and round counts copied from it, and per-kind
// measured/analytic ratios go into Scales so unprobed geometries fall
// back to a rescaled analytic estimate instead of a raw one. hw must be
// valid. The result passes the PASLUT1 artifact validator.
func FitLUT(hw Config, source string, readings []Reading) *LUT {
	lut := NewLUT(hw)
	lut.Source = source
	kindMeas := map[string]float64{}
	kindAna := map[string]float64{}
	for _, rd := range readings {
		ana := hw.Op(rd.Op.Kind, rd.Op.Shape)
		c := Cost{TotalSec: rd.RowSec, CommBits: ana.CommBits, Rounds: ana.Rounds}
		if ana.TotalSec > 0 {
			c.CompSec = rd.RowSec * ana.CompSec / ana.TotalSec
			// The remainder can round to a tiny negative when the
			// analytic split is ~all-compute; the artifact validator
			// rightly rejects negative fields.
			if c.CommSec = rd.RowSec - c.CompSec; c.CommSec < 0 {
				c.CommSec = 0
			}
		} else {
			c.CompSec = rd.RowSec
		}
		lut.Entries[rd.Op.Key()] = c
		kind := rd.Op.Kind.String()
		kindMeas[kind] += rd.RowSec
		kindAna[kind] += ana.TotalSec
	}
	for kind, meas := range kindMeas {
		if ana := kindAna[kind]; ana > 0 && meas > 0 {
			if lut.Scales == nil {
				lut.Scales = map[string]float64{}
			}
			lut.Scales[kind] = meas / ana
		}
	}
	return lut
}

// Cost returns the operator cost, computing and memoizing it on first use.
func (l *LUT) Cost(op NetOp) Cost {
	key := op.Key()
	if c, ok := l.Entries[key]; ok {
		return c
	}
	c := l.Config.Op(op.Kind, op.Shape)
	if s, ok := l.Scales[op.Kind.String()]; ok && s > 0 {
		c.CompSec *= s
		c.CommSec *= s
		c.TotalSec *= s
	}
	l.Entries[key] = c
	return c
}

// Build precomputes entries for all the given ops and returns l.
func (l *LUT) Build(ops []NetOp) *LUT {
	for _, op := range ops {
		l.Cost(op)
	}
	return l
}

// Keys returns the table's keys in sorted order (for stable printing).
func (l *LUT) Keys() []string {
	keys := make([]string, 0, len(l.Entries))
	for k := range l.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NetworkCost sums the costs of a network's operators: the batch-1 private
// inference latency of the coarse-grained (sequential layer) schedule.
func NetworkCost(cfg Config, ops []NetOp) Cost {
	var total Cost
	for _, op := range ops {
		total = total.add(cfg.Op(op.Kind, op.Shape))
	}
	return total
}

// NetworkCostLUT sums a network's operator costs through a lookup table —
// the calibrated analogue of NetworkCost, used when entries come from
// measurement rather than the closed-form equations.
func NetworkCostLUT(l *LUT, ops []NetOp) Cost {
	var total Cost
	for _, op := range ops {
		total = total.add(l.Cost(op))
	}
	return total
}

// Breakdown returns per-op costs in network order.
func Breakdown(cfg Config, ops []NetOp) []Cost {
	out := make([]Cost, len(ops))
	for i, op := range ops {
		out[i] = cfg.Op(op.Kind, op.Shape)
	}
	return out
}

// Schedule models the coarse-grained pipeline the paper's accelerator
// uses: for batch size 1 the latency is the sequential sum; for a stream
// of inputs the steady-state throughput is limited by the slowest stage.
type Schedule struct {
	// LatencySec is the single-input end-to-end latency.
	LatencySec float64
	// BottleneckSec is the slowest stage's latency.
	BottleneckSec float64
	// BottleneckOp names the limiting operator.
	BottleneckOp string
	// ThroughputPerSec is 1/BottleneckSec (images per second, steady
	// state with full inter-stage double buffering).
	ThroughputPerSec float64
	// TotalCommBits is the modelled traffic per inference.
	TotalCommBits int64
}

// BuildSchedule computes the pipeline schedule for a network.
func BuildSchedule(cfg Config, ops []NetOp) Schedule {
	var s Schedule
	for _, op := range ops {
		c := cfg.Op(op.Kind, op.Shape)
		s.LatencySec += c.TotalSec
		s.TotalCommBits += c.CommBits
		if c.TotalSec > s.BottleneckSec {
			s.BottleneckSec = c.TotalSec
			s.BottleneckOp = op.Name
		}
	}
	if s.BottleneckSec > 0 {
		s.ThroughputPerSec = 1 / s.BottleneckSec
	}
	return s
}
