// Package obs is the fleet's observability layer: a lock-free metrics
// registry (atomic counters, gauges and fixed-bucket histograms whose
// update paths allocate nothing), a bounded structured event ring for
// rare lifecycle transitions (shed, failover, deadline, revival,
// quarantine, reprovision-swap, budget-low), Prometheus text and JSON
// snapshot export, an instrumented transport.Conn that counts wire
// bytes and frames per frame kind in both directions plus protocol
// rounds (send→recv direction flips), and a per-op latency feed
// that fits back into a hwmodel.LUT so autodeploy can recalibrate
// from a serving router instead of an owned probe transport.
//
// Registration (Counter/Gauge/FGauge/Histogram lookups) takes a mutex;
// metric updates are single atomic operations. Every registration
// method is safe on a nil *Registry — it returns an unregistered but
// fully functional metric — so instrumented packages can keep their
// bookkeeping on obs types unconditionally and only pay export wiring
// when a registry is actually plumbed in.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic integer gauge (queue depths, inflight rows).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FGauge is an atomic float64 gauge (EWMA latencies, speed ratios),
// stored as IEEE-754 bits in a uint64.
type FGauge struct{ v atomic.Uint64 }

// Set replaces the gauge value.
func (g *FGauge) Set(x float64) { g.v.Store(math.Float64bits(x)) }

// Load returns the current value.
func (g *FGauge) Load() float64 { return math.Float64frombits(g.v.Load()) }

// DefLatencyBuckets are the default histogram bounds for latencies in
// seconds: 250µs to 5s, roughly log-spaced, matching the sub-ms..s
// range of 2PC flush phases on the demo geometries.
var DefLatencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram is a fixed-bucket latency histogram. Bounds are ascending
// upper bounds; one extra overflow bucket (+Inf) is implicit. Observe
// performs a handful of atomic operations and never allocates.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS loop
}

// NewHistogram builds an unregistered histogram with the given bounds
// (DefLatencyBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistSnapshot is a point-in-time copy of a histogram. Counts has one
// entry per bound plus the overflow bucket, non-cumulative.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge folds another snapshot into s. The bucket layouts must match.
func (s *HistSnapshot) Merge(o HistSnapshot) error {
	if len(s.Bounds) != len(o.Bounds) {
		return fmt.Errorf("obs: merge of mismatched histograms: %d vs %d bounds", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("obs: merge of mismatched histograms: bound %d is %g vs %g", i, s.Bounds[i], o.Bounds[i])
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
	return nil
}

// metricKind discriminates a registered metric's type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindFGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindFGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered time series: a name, its label pairs, and
// exactly one live value object.
type metric struct {
	name   string
	labels []string // alternating key, value
	kind   metricKind
	c      *Counter
	g      *Gauge
	f      *FGauge
	h      *Histogram
}

// Registry holds every registered metric plus the event ring and the
// per-op latency feed. The zero value is not usable; call New.
type Registry struct {
	mu    sync.Mutex
	byID  map[string]*metric
	order []*metric

	events EventRing
	feed   OpFeed
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{byID: map[string]*metric{}}
}

// metricID canonicalizes a (name, labels) pair. Label order is
// normalized by sorting keys so two call sites naming the same series
// with differently ordered labels share one object.
func metricID(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// sortLabels returns the label pairs sorted by key (copying; the
// caller's slice is not modified).
func sortLabels(labels []string) []string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %v", labels))
	}
	if len(labels) <= 2 {
		return append([]string(nil), labels...)
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	out := make([]string, 0, len(labels))
	for _, p := range kvs {
		out = append(out, p.k, p.v)
	}
	return out
}

// lookup registers or retrieves the series (name, labels). A name may
// not be reused with a different metric kind.
func (r *Registry) lookup(kind metricKind, name string, labels []string) *metric {
	labels = sortLabels(labels)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byID[id]; m != nil {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s and %s", id, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindFGauge:
		m.f = &FGauge{}
	}
	// Histograms are attached by the caller (they carry bounds).
	r.byID[id] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or retrieves) a counter series. Labels are
// alternating key/value pairs. Safe on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(kindCounter, name, labels).c
}

// Gauge registers (or retrieves) an integer gauge series. Safe on a
// nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(kindGauge, name, labels).g
}

// FGauge registers (or retrieves) a float gauge series. Safe on a nil
// registry.
func (r *Registry) FGauge(name string, labels ...string) *FGauge {
	if r == nil {
		return &FGauge{}
	}
	return r.lookup(kindFGauge, name, labels).f
}

// Histogram registers (or retrieves) a histogram series with the given
// bounds (DefLatencyBuckets when nil). Bounds are fixed at first
// registration; later lookups reuse them. Safe on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	labels = sortLabels(labels)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byID[id]; m != nil {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("obs: metric %s registered as %s and histogram", id, m.kind))
		}
		return m.h
	}
	m := &metric{name: name, labels: labels, kind: kindHistogram, h: NewHistogram(bounds)}
	r.byID[id] = m
	r.order = append(r.order, m)
	return m.h
}

// OpFeed returns the registry's per-op latency feed. On a nil
// registry it returns a fresh standalone feed.
func (r *Registry) OpFeed() *OpFeed {
	if r == nil {
		return &OpFeed{}
	}
	return &r.feed
}

// FlushSpans bundles the five pi.Flight phase histograms of one
// instrumented session family, pre-resolved so the flush hot path
// never touches the registration lock.
type FlushSpans struct {
	Ingest     *Histogram
	Evaluate   *Histogram
	RevealSend *Histogram
	RevealRecv *Histogram
	Decode     *Histogram
}

// FlushSpans registers the pasnet_flush_phase_seconds histograms for
// the given label set, one per flush lifecycle phase. Safe on a nil
// registry.
func (r *Registry) FlushSpans(labels ...string) *FlushSpans {
	mk := func(phase string) *Histogram {
		ls := append(append(make([]string, 0, len(labels)+2), labels...), "phase", phase)
		return r.Histogram("pasnet_flush_phase_seconds", nil, ls...)
	}
	return &FlushSpans{
		Ingest:     mk("ingest"),
		Evaluate:   mk("evaluate"),
		RevealSend: mk("reveal_send"),
		RevealRecv: mk("reveal_recv"),
		Decode:     mk("decode"),
	}
}
