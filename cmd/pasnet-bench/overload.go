package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pasnet/internal/gateway"
	"pasnet/internal/kernel"
	"pasnet/internal/models"
	"pasnet/internal/rng"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
)

// overloadResult is one (client count, admission mode) configuration's
// tail behaviour under the saturating closed-loop load.
type overloadResult struct {
	Clients int    `json:"clients"`
	Mode    string `json:"mode"`
	Queries int    `json:"queries"`
	Served  int    `json:"served"`
	Shed    int    `json:"shed"`
	// ShedRate is Shed / Queries; the unbounded mode always reports 0.
	ShedRate float64 `json:"shed_rate"`
	// P50MS and P99MS are per-query latency percentiles over the served
	// queries (a shed query returns immediately and is not a latency
	// sample — its cost is the shed rate).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// overloadReport is the BENCH_overload.json schema: what admission
// control buys under overload. The headline is that with a queue-time
// target the p99 stays bounded near the target as the offered load
// grows, at the price of an explicit shed rate, while the unbounded
// fleet's p99 grows with the client count — every query is accepted and
// every query waits.
type overloadReport struct {
	GeneratedUnix int64  `json:"generated_unix"`
	Workers       int    `json:"workers"`
	Backbone      string `json:"backbone"`
	Shards        int    `json:"shards"`
	// OneWayDelayMS is the modeled per-frame one-way wire delay of every
	// shard link (transport.DelayPipe).
	OneWayDelayMS float64 `json:"one_way_delay_ms"`
	// BaseMS is the calibrated single-client ms/query of this fleet, and
	// QueueTargetMS the admission mode's queue-time target derived from
	// it: a query predicted to wait longer than this is shed at admission.
	BaseMS           float64          `json:"base_ms"`
	QueueTargetMS    float64          `json:"queue_target_ms"`
	QueriesPerClient int              `json:"queries_per_client"`
	Results          []overloadResult `json:"results"`
}

// percentile returns the nearest-rank p-th percentile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// queueTargetMult scales the calibrated single-client base latency into
// the admission mode's queue-time target (queue_target_ms = mult × base_ms
// in BENCH_overload.json). 2× gives the queue room for one flush of
// natural batching jitter while still shedding before the wait dominates
// the service time; README's overload table quotes the same multiplier.
const queueTargetMult = 2

// overloadBench measures admission control under overload: a fixed
// two-shard fleet is driven by growing closed-loop client counts, first
// unbounded (every query admitted, every query waits) and then with a
// queue-time target calibrated at queueTargetMult times the single-client
// base latency. Per-query latency percentiles and the shed rate go to
// BENCH_overload.json.
func overloadBench(c *config) error {
	out := c.out
	m, err := trainDemoBackbone()
	if err != nil {
		return err
	}
	const (
		shards    = 2
		perClient = 10
		oneWay    = 500 * time.Microsecond
	)
	// Calibrate the fleet's base speed: one client, no contention. The
	// median absorbs warmup noise.
	base, _, _, err := overloadRun(m, shards, 1, perClient, 0, oneWay)
	if err != nil {
		return fmt.Errorf("overload calibration: %w", err)
	}
	baseMS := percentile(base, 50)
	target := time.Duration(queueTargetMult * baseMS * float64(time.Millisecond))

	rep := overloadReport{
		GeneratedUnix:    time.Now().Unix(),
		Workers:          kernel.Workers(),
		Backbone:         benchBackbone,
		Shards:           shards,
		OneWayDelayMS:    oneWay.Seconds() * 1e3,
		BaseMS:           baseMS,
		QueueTargetMS:    target.Seconds() * 1e3,
		QueriesPerClient: perClient,
	}
	fmt.Fprintf(out, "Overload admission control (workers=%d, %d shards, base %.2f ms/query, queue target %.2f ms):\n",
		kernel.Workers(), shards, baseMS, target.Seconds()*1e3)
	fmt.Fprintf(out, "  %7s %10s %10s %10s %10s %10s\n", "clients", "mode", "p50 ms", "p99 ms", "shed", "shed rate")
	for _, clients := range []int{2, 8, 32} {
		for _, mode := range []struct {
			name   string
			target time.Duration
		}{
			{"unbounded", 0},
			{"admission", target},
		} {
			lat, served, shed, err := overloadRun(m, shards, clients, perClient, mode.target, oneWay)
			if err != nil {
				return fmt.Errorf("overload C=%d %s: %w", clients, mode.name, err)
			}
			sort.Float64s(lat)
			total := clients * perClient
			res := overloadResult{
				Clients:  clients,
				Mode:     mode.name,
				Queries:  total,
				Served:   served,
				Shed:     shed,
				ShedRate: float64(shed) / float64(total),
				P50MS:    percentile(lat, 50),
				P99MS:    percentile(lat, 99),
			}
			rep.Results = append(rep.Results, res)
			fmt.Fprintf(out, "  %7d %10s %10.2f %10.2f %10d %9.0f%%\n",
				clients, mode.name, res.P50MS, res.P99MS, shed, res.ShedRate*100)
		}
	}

	return writeBenchJSON(out, c.benchJSON, "overload", rep)
}

// overloadRun stands up one fresh in-process deployment and drives the
// closed-loop client load, returning the served queries' latencies in
// milliseconds plus the served and shed counts. A target of 0 runs
// unbounded; otherwise the dispatcher sheds at admission once a query's
// predicted queue time overruns the target, and the client moves on to
// its next query (the open-loop retreat a real client performs).
func overloadRun(m *models.Model, shards, clients, perClient int, target, oneWay time.Duration) ([]float64, int, int, error) {
	reg := gateway.NewRegistry()
	spec := &gateway.ModelSpec{
		ID:     benchBackbone,
		Model:  m,
		Input:  []int{3, benchDemoHW, benchDemoHW},
		Shards: gateway.Shards(benchBackbone, shards, 29, ""),
	}
	if err := reg.Register(spec); err != nil {
		return nil, 0, 0, err
	}
	vendor := &delayVendor{reg: reg, delay: func(int) time.Duration { return oneWay }}
	rt, err := gateway.NewRouter(reg, gateway.RouterOptions{
		Batch:       4,
		Window:      2 * time.Millisecond,
		Policy:      sched.QueueAware,
		Dial:        vendor.dial,
		QueueTarget: target,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	// Warmup: calibrate the dispatcher's latency model (queue-time
	// prediction needs observed flushes) and absorb one-time setup costs
	// before the measured load starts.
	wr := rng.New(999)
	for q := 0; q < 3; q++ {
		if _, err := rt.Submit(benchBackbone, tensor.New(1, 3, benchDemoHW, benchDemoHW).RandNorm(wr, 0.5)); err != nil {
			rt.Close()
			return nil, 0, 0, fmt.Errorf("warmup: %w", err)
		}
	}
	var mu sync.Mutex
	var lat []float64
	shed := 0
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(2000 + uint64(c))
			for q := 0; q < perClient; q++ {
				x := tensor.New(1, 3, benchDemoHW, benchDemoHW).RandNorm(r, 0.5)
				start := time.Now()
				_, err := rt.Submit(benchBackbone, x)
				ms := time.Since(start).Seconds() * 1e3
				mu.Lock()
				switch {
				case err == nil:
					lat = append(lat, ms)
				case errors.Is(err, sched.ErrShed):
					shed++
				default:
					mu.Unlock()
					errc <- err
					return
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	closeErr := rt.Close()
	waitErr := vendor.wait()
	for err := range errc {
		return nil, 0, 0, err
	}
	if closeErr != nil {
		return nil, 0, 0, closeErr
	}
	if waitErr != nil {
		return nil, 0, 0, waitErr
	}
	return lat, len(lat), shed, nil
}
