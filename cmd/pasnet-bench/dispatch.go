package main

import (
	"fmt"
	"sync"
	"time"

	"pasnet/internal/gateway"
	"pasnet/internal/kernel"
	"pasnet/internal/models"
	"pasnet/internal/rng"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// dispatchMode is one scheduling configuration under test.
type dispatchMode struct {
	name   string
	policy sched.Policy
}

var dispatchModes = []dispatchMode{
	{name: "roundrobin-serialized", policy: sched.RoundRobin},
	{name: "queue-serialized", policy: sched.QueueAware},
}

// dispatchResult is one (shard count, mode) configuration's cost over the
// skewed closed-loop load.
type dispatchResult struct {
	Shards int    `json:"shards"`
	Mode   string `json:"mode"`
	// Queries is the total submissions across all closed-loop clients;
	// HeavyQueries of them carry HeavyRows rows each (the row skew), the
	// rest one row.
	Queries      int     `json:"queries"`
	HeavyQueries int     `json:"heavy_queries"`
	HeavyRows    int     `json:"heavy_rows"`
	MSTotal      float64 `json:"ms_total"`
	MSPerQuery   float64 `json:"ms_per_query"`
	Reps         int     `json:"reps"`
}

// dispatchReport is the BENCH_dispatch.json schema: the perf-trajectory
// file recording what queue-aware picking buys over blind round-robin,
// under a skewed closed-loop load on a heterogeneous shard fleet.
type dispatchReport struct {
	GeneratedUnix int64  `json:"generated_unix"`
	Workers       int    `json:"workers"`
	Backbone      string `json:"backbone"`
	// OneWayDelayMS is the modeled per-frame one-way wire delay of a
	// nominal shard link, and LaggardDelayMS the laggard replica's
	// (transport.DelayPipe models both: every protocol round costs wire
	// time, frames in flight overlap — the deployment regime in which
	// scheduling effects exist at all). At 2+ shards the
	// highest-indexed shard is the laggard — the cross-rack replica a
	// blind rotation keeps feeding.
	OneWayDelayMS    float64          `json:"one_way_delay_ms"`
	LaggardDelayMS   float64          `json:"laggard_delay_ms"`
	Clients          int              `json:"clients"`
	QueriesPerClient int              `json:"queries_per_client"`
	Results          []dispatchResult `json:"results"`
	// SpeedupVsRoundRobin maps "sN" to round-robin-serialized ms/query
	// divided by queue-serialized ms/query at N shards: the headline is
	// that this exceeds 1 once the fleet is heterogeneous (2+ shards),
	// because round-robin keeps handing the laggard its full share while
	// the queue-aware picker learns the lane's speed and routes around
	// it.
	SpeedupVsRoundRobin map[string]float64 `json:"speedup_vs_round_robin"`
}

// dispatchBench measures the adaptive dispatch scheduler: for 1, 2 and 4
// shards it drives a closed-loop client load (each client submits its
// next query when its previous one returns — the serving shape, and the
// feedback loop a scheduler actually sees) through the gateway under
// each picking policy — round-robin (the pre-scheduler baseline) and
// queue-aware, both on serialized flushes — and records amortized
// ms/query, taking the fastest of several repetitions so a noisy runner
// cannot manufacture a phantom regression. The load is
// doubly skewed: every fourth query of a client is a heavy multi-row
// batch, and the highest-indexed shard pair sits behind a slow link (a
// cross-rack replica). All pairs run the live dealer: the story here is
// scheduling; the offline split is measured by the ledger's store-fed
// workloads.
func dispatchBench(c *config) error {
	out := c.out
	m, err := trainDemoBackbone()
	if err != nil {
		return err
	}
	const (
		clients    = 8
		perClient  = 6
		heavyEvery = 4
		heavyRows  = 6
		reps       = 3
		oneWay     = 500 * time.Microsecond // a LAN-grade link
		laggard    = 4 * time.Millisecond   // the cross-rack replica's link
	)
	totalQueries := clients * perClient

	rep := dispatchReport{
		GeneratedUnix:       time.Now().Unix(),
		Workers:             kernel.Workers(),
		Backbone:            benchBackbone,
		OneWayDelayMS:       oneWay.Seconds() * 1e3,
		LaggardDelayMS:      laggard.Seconds() * 1e3,
		Clients:             clients,
		QueriesPerClient:    perClient,
		SpeedupVsRoundRobin: map[string]float64{},
	}
	fmt.Fprintf(out, "Adaptive dispatch scheduler (workers=%d, %d clients × %d queries, every %dth heavy ×%d rows,\n",
		kernel.Workers(), clients, perClient, heavyEvery, heavyRows)
	fmt.Fprintf(out, "%.1fms one-way links, laggard shard at %.1fms):\n", oneWay.Seconds()*1e3, laggard.Seconds()*1e3)
	fmt.Fprintf(out, "  %7s %22s %14s %14s\n", "shards", "mode", "ms total", "ms/query")
	for _, shards := range []int{1, 2, 4} {
		perMode := map[string]float64{}
		for _, mode := range dispatchModes {
			best := 0.0
			for r := 0; r < reps; r++ {
				ms, err := dispatchRun(m, shards, mode, clients, perClient, heavyEvery, heavyRows, oneWay, laggard)
				if err != nil {
					return fmt.Errorf("dispatch S=%d %s: %w", shards, mode.name, err)
				}
				if best == 0 || ms < best {
					best = ms
				}
			}
			perMode[mode.name] = best
			rep.Results = append(rep.Results, dispatchResult{
				Shards:       shards,
				Mode:         mode.name,
				Queries:      totalQueries,
				HeavyQueries: clients * ((perClient + heavyEvery - 1) / heavyEvery),
				HeavyRows:    heavyRows,
				MSTotal:      best,
				MSPerQuery:   best / float64(totalQueries),
				Reps:         reps,
			})
			fmt.Fprintf(out, "  %7d %22s %14.2f %14.3f\n", shards, mode.name, best, best/float64(totalQueries))
		}
		speedup := perMode["roundrobin-serialized"] / perMode["queue-serialized"]
		rep.SpeedupVsRoundRobin[fmt.Sprintf("s%d", shards)] = speedup
		fmt.Fprintf(out, "  %7d %22s %14s %13.2fx\n", shards, "(rr / q, serialized)", "", speedup)
	}

	return writeBenchJSON(out, c.benchJSON, "dispatch", rep)
}

// delayVendor serves every shard's party-0 peer in-process like
// gateway.Loopback, but over transport.DelayPipe links with a per-shard
// one-way delay, so the run models a fleet of replica pairs on links of
// mixed quality: each protocol round pays wire time, in-flight frames
// overlap, and compute overlaps propagation — the regime the scheduler
// exists for. (On a loopback pipe every round is free and a single-core
// runner serializes all compute, so no scheduling policy could show its
// effect.)
type delayVendor struct {
	reg   *gateway.Registry
	delay func(shard int) time.Duration
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error
}

func (v *delayVendor) dial(desc gateway.ShardDesc) (transport.Conn, error) {
	c0, c1 := transport.DelayPipe(v.delay(desc.Shard))
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		if err := gateway.ServeShardConn(c0, v.reg); err != nil {
			v.mu.Lock()
			if v.err == nil {
				v.err = err
			}
			v.mu.Unlock()
		}
	}()
	return c1, nil
}

func (v *delayVendor) wait() error {
	v.wg.Wait()
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// dispatchRun stands up one fresh in-process deployment at the given
// shard count and scheduling mode — the highest-indexed shard behind the
// laggard link when the fleet has 2+ shards — and drives the closed-loop
// client load, returning the wall-clock ms from first submission to last
// reply.
func dispatchRun(m *models.Model, shards int, mode dispatchMode, clients, perClient, heavyEvery, heavyRows int, oneWay, laggard time.Duration) (float64, error) {
	reg := gateway.NewRegistry()
	spec := &gateway.ModelSpec{
		ID:     benchBackbone,
		Model:  m,
		Input:  []int{3, benchDemoHW, benchDemoHW},
		Shards: gateway.Shards(benchBackbone, shards, 29, ""),
	}
	if err := reg.Register(spec); err != nil {
		return 0, err
	}
	vendor := &delayVendor{reg: reg, delay: func(shard int) time.Duration {
		if shards > 1 && shard == shards-1 {
			return laggard
		}
		return oneWay
	}}
	rt, err := gateway.NewRouter(reg, gateway.RouterOptions{
		Batch: 4,
		// A short gather window (every mode gets it, so the comparison is
		// about policy) lets lanes fill batches instead of
		// flushing single queries: with per-flush round cost on the wire,
		// co-batching amortizes rounds.
		Window: 2 * time.Millisecond,
		Policy: mode.policy,
		Dial:   vendor.dial,
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(1000 + uint64(c))
			for q := 0; q < perClient; q++ {
				rows := 1
				if q%heavyEvery == 0 {
					rows = heavyRows
				}
				x := tensor.New(rows, 3, benchDemoHW, benchDemoHW).RandNorm(r, 0.5)
				if _, err := rt.Submit(benchBackbone, x); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	ms := time.Since(start).Seconds() * 1e3
	// Tear down before surfacing any query error, so a failed rep never
	// leaks live sessions or vendor goroutines into the next one.
	closeErr := rt.Close()
	waitErr := vendor.wait()
	for err := range errc {
		return 0, err
	}
	if closeErr != nil {
		return 0, closeErr
	}
	if waitErr != nil {
		return 0, waitErr
	}
	return ms, nil
}
