package main

import "time"

// workload is one fixed traffic shape driven through the serving path.
// Names are permanent: later issues cite them.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json).
	Why string
	// Class is the program class served: "relu-max", "x2-avg" or "mixed"
	// (alternating X²/avg and ReLU/max slots, what a searched PASNet
	// deploys).
	Class string
	// Delay is the one-way wire delay of every shard link (0: plain pipe).
	Delay time.Duration
	// Rows is the row count of every client query.
	Rows    int
	Shards  int
	Clients int
	// Batch, Window, QueueAware and Pipeline are the router's scheduling
	// options.
	Batch      int
	Window     time.Duration
	QueueAware bool
	Pipeline   bool
	// StoreFed provisions preprocessed .pcs stores for every epoch; false
	// keeps every pair on the live dealer.
	StoreFed bool
	// Warmup and EpochQueries are per-client query counts of one epoch: a
	// fresh deployment serves Warmup unmeasured queries, then at most
	// EpochQueries measured ones. Counts, not times, because a store-fed
	// deployment needs its flush budget before it starts.
	Warmup       int
	EpochQueries int
	// WindowFrac is the share of --seconds spent in measured windows.
	// Below 1 only where provisioning the stores a window consumes costs
	// more than serving it, so a full window would multiply the run time.
	WindowFrac float64
}

// workloads are the four fixed traffic shapes. Every one serves the demo
// backbone (resnet18, width 1/16, 3×8×8 inputs, 4 classes) with fixed
// weight masks through gateway.Router; both parties run in this process.
var workloads = []workload{
	{
		Name:  "relu_k1_lan",
		Why:   "Paper Fig. 1 regime: all-ReLU program on a 250us LAN link, one 1-row client; the comparison protocol (OT compute and its rounds) is nearly all of the time",
		Class: "relu-max", Delay: 250 * time.Microsecond,
		Rows: 1, Shards: 1, Clients: 1, Batch: 1, StoreFed: true,
		Warmup: 2, EpochQueries: 24, WindowFrac: 1,
	},
	{
		Name:  "x2_k16_loop",
		Why:   "No comparison and no wire delay: all-X2 program, 16-row queries on a plain pipe; ring GEMM, Beaver squares and share copies dominate",
		Class: "x2-avg",
		Rows:  16, Shards: 1, Clients: 1, Batch: 1, StoreFed: true,
		Warmup: 8, EpochQueries: 128, WindowFrac: 0.5,
	},
	{
		Name:  "x2_k1_wan",
		Why:   "Same all-X2 program, one 1-row client on a 5ms WAN link: sequential message depth times delay is nearly all of the latency",
		Class: "x2-avg", Delay: 5 * time.Millisecond,
		Rows: 1, Shards: 1, Clients: 1, Batch: 1, StoreFed: true,
		Warmup: 2, EpochQueries: 32, WindowFrac: 1,
	},
	{
		Name:  "mixed_fleet_live",
		Why:   "The serving shape: mixed program, 4 clients over 2 live-dealer shards, queue-aware pipelined lanes, so queueing, gather and the dealer do work",
		Class: "mixed", Delay: 250 * time.Microsecond,
		Rows: 1, Shards: 2, Clients: 4, Batch: 4, Window: time.Millisecond,
		QueueAware: true, Pipeline: true,
		Warmup: 3, EpochQueries: 30, WindowFrac: 1,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
