package obs

import (
	"fmt"
	"sort"
	"sync"

	"pasnet/internal/hwmodel"
)

// OpFeed accumulates per-operator online timings from pi engines — the
// tree's one op tracer sink. A fed engine records every traced op of
// every flush; the feed keeps running per-key aggregates instead of
// per-occurrence slices, so a router can serve indefinitely and still
// harvest a calibration-grade latency table at any moment, and a
// calibration probe reads the same aggregates after one run.
type OpFeed struct {
	mu sync.Mutex
	// aggs is keyed by the nameless NetOp — the same identity as its
	// Key() string, without formatting one per recorded op.
	aggs map[hwmodel.NetOp]*opAgg
}

// opAgg is one operator key's running aggregate.
type opAgg struct {
	rowSec float64 // sum over samples of (seconds / rows)
	n      int64
}

// Record folds one op timing into the feed.
func (f *OpFeed) Record(kind hwmodel.OpKind, shape hwmodel.OpShape, rows int, seconds float64) {
	if f == nil || rows < 1 || seconds < 0 {
		return
	}
	op := hwmodel.NetOp{Kind: kind, Shape: shape}
	f.mu.Lock()
	a := f.aggs[op]
	if a == nil {
		if f.aggs == nil {
			f.aggs = map[hwmodel.NetOp]*opAgg{}
		}
		a = &opAgg{}
		f.aggs[op] = a
	}
	a.rowSec += seconds / float64(rows)
	a.n++
	f.mu.Unlock()
}

// Keys returns the number of distinct operator keys observed.
func (f *OpFeed) Keys() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.aggs)
}

// Samples returns the total number of op timings recorded.
func (f *OpFeed) Samples() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int64(0)
	for _, a := range f.aggs {
		n += a.n
	}
	return n
}

// Reset discards all aggregates, e.g. after a harvest that should not
// bleed into the next calibration window.
func (f *OpFeed) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.aggs = nil
	f.mu.Unlock()
}

// Readings snapshots the feed: one hwmodel.Reading per operator key
// (mean per-row seconds and the sample count behind it), sorted by key.
func (f *OpFeed) Readings() []hwmodel.Reading {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]hwmodel.Reading, 0, len(f.aggs))
	for op, a := range f.aggs {
		out = append(out, hwmodel.Reading{Op: op, RowSec: a.rowSec / float64(a.n), Count: a.n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op.Key() < out[j].Op.Key() })
	return out
}

// HarvestLUT fits the feed's readings into a hwmodel.LUT with
// hwmodel.FitLUT — the fitter autodeploy.Calibrate uses on its probe
// readings. The result round-trips through the PASLUT1 artifact
// (hwmodel.WriteFile/ReadLUTFile) and feeds nas.Options.LUT, closing
// the serve→recalibrate→search loop without an owned probe transport.
func (f *OpFeed) HarvestLUT(hw hwmodel.Config, source string) (*hwmodel.LUT, error) {
	if err := hw.Validate(); err != nil {
		return nil, fmt.Errorf("obs: harvest analytic fallback: %w", err)
	}
	readings := f.Readings()
	if len(readings) == 0 {
		return nil, fmt.Errorf("obs: op feed has no samples to harvest")
	}
	if source == "" {
		source = "harvested/obs"
	}
	return hwmodel.FitLUT(hw, source, readings), nil
}
