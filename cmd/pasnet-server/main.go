// Command pasnet-server runs the paper's two-server private-inference
// deployment over TCP: the model vendor (party 0) and the client-facing
// gateway (party 1) hold one persistent 2PC session pair per (model,
// shard). The gateway accepts client queries, packs everything that
// arrives on a shard's lane within a batching window into one N=K secure
// evaluation against party 0, and demultiplexes the per-query logits back
// to each client.
//
//	Terminal 1:  pasnet-server -party 0 -listen :9000
//
//	Terminal 2:  pasnet-server -party gateway -connect 127.0.0.1:9000 \
//		-client-listen :9100 -batch 8 -window 50ms -clients 2
//
//	Terminal 3+: pasnet-server -party client -client-connect 127.0.0.1:9100 -queries 4
//
// That is the default deployment — one model (resnet18), one shard.
// -models and -shards scale the same roles out to many models and many
// shard pairs per model:
//
//	Terminal 1:  pasnet-server -party 0 -models resnet18,mobilenetv2 -shards 2 -listen :9000
//
//	Terminal 2:  pasnet-server -party gateway -models resnet18,mobilenetv2 -shards 2 \
//		-connect 127.0.0.1:9000 -client-listen :9100 -clients 2
//
//	Terminal 3+: pasnet-server -party client -model mobilenetv2 \
//		-client-connect 127.0.0.1:9100 -queries 4
//
// Both computing parties build the same (deterministically seeded) trained
// models and per-shard dealer streams; weight shares are established once
// per shard link and reused across every batched flush. The gateway routes
// each client query to one of its model's shard pairs round-robin, failing
// over to the next healthy shard when a pair dies. Running the gateway
// without -client-listen instead evaluates -queries local queries through
// the same router.
//
// The offline/online deployment split runs as a separate role:
//
//	pasnet-server -party preprocess -store ./stores -batches 1,2,4,8 -flushes 8
//
// provisions one correlation store directory per (model, shard) under
// -store, so shard fan-out multiplies offline generation only. The
// computing parties then add `-store ./stores` and their measured online
// phase only replays preprocessed material. A flush whose geometry was
// never preprocessed degrades to the live dealer on both sides (counted
// and reported at shutdown); an exhausted or wrong-run store fails that
// shard with a descriptive error on both sides — and the gateway reroutes
// its queries to the surviving shards. Note a flush's geometry is the row
// *sum* of the packed queries — up to -batch requests of up to -batch rows
// each — so preprocess the sums your query mix actually produces
// (single-row clients yield sums 1..-batch).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pasnet/internal/dataset"
	"pasnet/internal/gateway"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"pasnet/internal/obs"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// config collects the command-line options of all four roles.
type config struct {
	party         string
	listen        string
	connect       string
	clientListen  string
	clientConnect string
	seed          uint64
	batch         int
	window        time.Duration
	queries       int
	clients       int
	// store is the preprocessed-correlation directory: the preprocess role
	// writes store files there; the computing parties load them at serve
	// time. It is the per-(model, shard) store root.
	store string
	// flushes and batches shape the preprocess role's output: how many
	// evaluations per geometry, at which batch sizes.
	flushes int
	batches string
	// models and shards shape the deployment: a comma-separated backbone
	// list served with that many shard pairs each.
	models string
	shards int
	// model is the client role's target model ID ("" = the first -models
	// entry).
	model string
	// sched picks the gateway's shard-dispatch policy; pipeline switches
	// its pairs to the phase-split pipelined flush schedule.
	sched    string
	pipeline bool
	// lifecycle re-dials and re-provisions dead shard pairs with backoff
	// instead of retiring them (gateway role; the vendor keeps accepting
	// links to serve later generations, revived or rolled over).
	lifecycle bool
	// budgetWarn logs a re-provision warning when a shard's remaining
	// preprocessed-correlation budget drops below this (0: off).
	budgetWarn int
	// flushDeadline bounds every in-flush receive on a 2PC pair, so a
	// stalled peer fails the pair instead of wedging a worker (0: off).
	flushDeadline time.Duration
	// queueTarget and quota are the gateway's admission controls: shed a
	// query when its estimated completion exceeds the target, or when its
	// model already has quota queries in flight (0: off).
	queueTarget time.Duration
	quota       int
	// queueCap bounds each shard lane's pending queue; submissions to a
	// full lane block (0: the lane default).
	queueCap int
	// reprovision rolls the gateway's shard pairs over to fresh store
	// generations at this remaining-correlation budget floor (0: off);
	// it implies the gateway-side lifecycle.
	reprovision int
	// statusJSON dumps the gateway's unified status document — shard
	// routing table plus the full metrics snapshot (wire/round counters,
	// flush-phase histograms, event tail) — as JSON to this file on
	// SIGUSR1 and at shutdown.
	statusJSON string
	// metricsAddr serves the gateway's observability over HTTP:
	// Prometheus text at /metrics and the same unified status document
	// -status-json writes at /status.json (empty: off).
	metricsAddr string
}

// newFlagSet declares every role's flags over cfg.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("pasnet-server", flag.ExitOnError)
	fs.StringVar(&cfg.party, "party", "0", "role: 0 (model vendor, listens), gateway (client-facing server, connects), client (query submitter), preprocess (offline store writer)")
	fs.StringVar(&cfg.listen, "listen", ":9000", "party 0 listen address for the 2PC shard links")
	fs.StringVar(&cfg.connect, "connect", "127.0.0.1:9000", "gateway: party 0's address for the 2PC shard links")
	fs.StringVar(&cfg.clientListen, "client-listen", "", "gateway: address for client query submissions (empty: evaluate -queries local queries)")
	fs.StringVar(&cfg.clientConnect, "client-connect", "127.0.0.1:9100", "client mode: the gateway's client address")
	fs.Uint64Var(&cfg.seed, "seed", 99, "shared deterministic seed (must match on both computing parties)")
	fs.IntVar(&cfg.batch, "batch", 8, "gateway: max queries packed into one secure evaluation per shard")
	fs.DurationVar(&cfg.window, "window", 50*time.Millisecond, "gateway: max wait before flushing a partial batch")
	fs.IntVar(&cfg.queries, "queries", 4, "queries to submit (local mode, or client mode)")
	fs.IntVar(&cfg.clients, "clients", 1, "gateway: client connections to serve before shutting down")
	fs.StringVar(&cfg.store, "store", "", "preprocessed correlation store root (preprocess role writes it; computing parties serve from it)")
	fs.IntVar(&cfg.flushes, "flushes", 8, "preprocess: evaluations to preprocess per batch geometry (per shard)")
	fs.StringVar(&cfg.batches, "batches", "1,2,4,8", "preprocess: comma-separated batch sizes to preprocess")
	fs.StringVar(&cfg.models, "models", "resnet18", "comma-separated backbones to serve (party 0, gateway and preprocess roles must agree)")
	fs.IntVar(&cfg.shards, "shards", 1, "2PC session pairs per model")
	fs.StringVar(&cfg.model, "model", "", "client mode: model ID to query (empty: the first -models entry)")
	fs.StringVar(&cfg.sched, "sched", "roundrobin", "gateway: shard dispatch policy, roundrobin or queue (queue depth × flush-latency estimate)")
	fs.BoolVar(&cfg.pipeline, "pipeline", false, "gateway: pipelined flush schedule — overlap one flush's reconstruction with the next flush's input sharing per pair (bit-identical outputs)")
	fs.BoolVar(&cfg.lifecycle, "lifecycle", false, "gateway/vendor: revive dead shard pairs (re-dial with backoff, fresh streams and stores) instead of retiring them; the vendor accepts links until interrupted")
	fs.IntVar(&cfg.budgetWarn, "budget-warn", 0, "gateway: log a re-provision warning when a shard's remaining preprocessed budget drops below this many correlations (0: off)")
	fs.DurationVar(&cfg.flushDeadline, "flush-deadline", 0, "computing parties: bound every in-flush receive on a 2PC pair, so a stalled peer fails that pair (triggering failover/revival) instead of wedging it forever (0: unbounded)")
	fs.DurationVar(&cfg.queueTarget, "queue-target", 0, "gateway: shed a query at admission when its estimated completion exceeds this queue-time target (0: off)")
	fs.IntVar(&cfg.quota, "quota", 0, "gateway: max in-flight admitted queries per model; submissions over the quota are shed at admission with a descriptive error (0: unbounded)")
	fs.IntVar(&cfg.queueCap, "queue-cap", 0, "gateway: per-shard-lane queue bound; submissions to a full lane block (0: the lane default)")
	fs.IntVar(&cfg.reprovision, "reprovision", 0, "gateway: store rollover — build and swap in the next store generation once a shard's remaining preprocessed budget drops below this many correlations; implies -lifecycle here, and the vendor must run -lifecycle to accept the new links (0: off)")
	fs.StringVar(&cfg.statusJSON, "status-json", "", "gateway: dump the unified status document (shard table + full metrics snapshot + event tail) as JSON to this file on SIGUSR1 and at shutdown (empty: off)")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "gateway: serve Prometheus text at /metrics and the unified status document at /status.json on this address (empty: off)")
	return fs
}

func main() {
	var cfg config
	_ = newFlagSet(&cfg).Parse(os.Args[1:]) // ExitOnError: Parse never returns an error
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pasnet-server:", err)
		os.Exit(1)
	}
}

// inputHW is the demo models' spatial size; all roles derive query
// geometry from it.
const inputHW = 16

// queryIndex picks the q'th local query's deterministic dataset index,
// safe for seeds above MaxInt64 (a plain int(seed)+q goes negative there
// and Go's % keeps the sign).
func queryIndex(seed uint64, q, n int) int {
	return int((seed%uint64(n) + uint64(q)) % uint64(n))
}

// buildDataset returns the deterministic synthetic query source shared by
// every role.
func buildDataset(seed uint64) *dataset.Dataset {
	return dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: inputHW, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: seed,
	})
}

// buildModel deterministically trains a demo model so the two computing
// parties need no weight files.
func buildModel(backbone string, seed uint64, d *dataset.Dataset) (*models.Model, error) {
	cfg := models.CIFARConfig(0.0625, seed)
	cfg.InputHW = inputHW
	cfg.NumClasses = 4
	cfg.Act = models.ActX2
	m, err := models.ByName(backbone, cfg)
	if err != nil {
		return nil, err
	}
	tOpts := nas.DefaultTrainOptions()
	tOpts.Steps = 20
	tOpts.BatchSize = 8
	if _, err := nas.TrainModel(m, d, d, tOpts); err != nil {
		return nil, err
	}
	return m, nil
}

// buildRegistry deterministically trains every -models backbone and
// registers it with -shards shard descriptors. The vendor, the gateway
// and the preprocess role all derive the identical registry — same models,
// same per-shard dealer seeds, same store layout — from the shared flags.
func buildRegistry(cfg config) (*gateway.Registry, error) {
	names := splitList(cfg.models)
	if len(names) == 0 {
		return nil, fmt.Errorf("-models named no backbones")
	}
	if cfg.shards < 1 {
		return nil, fmt.Errorf("-shards must be >= 1, got %d", cfg.shards)
	}
	d := buildDataset(cfg.seed)
	reg := gateway.NewRegistry()
	reg.SetLogf(func(format string, args ...any) { fmt.Printf(format+"\n", args...) })
	for _, name := range names {
		m, err := buildModel(name, cfg.seed, d)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", name, err)
		}
		spec := &gateway.ModelSpec{
			ID:     name,
			Model:  m,
			Input:  []int{3, inputHW, inputHW},
			RowCap: cfg.batch,
			Shards: gateway.Shards(name, cfg.shards, cfg.seed, cfg.store),
		}
		if err := reg.Register(spec); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func run(cfg config) error {
	switch cfg.party {
	case "0":
		return runMultiVendor(cfg)
	case "gateway":
		return runGateway(cfg)
	case "client":
		return runClient(cfg)
	case "preprocess":
		return runPreprocess(cfg)
	default:
		return fmt.Errorf("unknown -party %q (want 0, gateway, client or preprocess)", cfg.party)
	}
}

// runPreprocess is the offline phase as its own role: it traces the
// models' correlation demand per batch geometry and writes both parties'
// store files under -store, each covering -flushes evaluations. Every
// (model, shard) pair gets its own store directory off its own dealer
// stream — shard fan-out multiplies this offline work, never the online
// path.
func runPreprocess(cfg config) error {
	if cfg.store == "" {
		return fmt.Errorf("preprocess role needs -store <dir>")
	}
	if err := os.MkdirAll(cfg.store, 0o755); err != nil {
		return err
	}
	batches, err := parseBatchSizes(cfg.batches)
	if err != nil {
		return err
	}
	start := time.Now()
	reg, err := buildRegistry(cfg)
	if err != nil {
		return err
	}
	paths, err := gateway.WriteShardStores(reg, batches, cfg.flushes)
	if err != nil {
		return err
	}
	fmt.Printf("preprocessed %d flushes per geometry for models %v × %d shard(s), batch sizes %v in %.1f ms:\n",
		cfg.flushes, reg.Models(), cfg.shards, batches, time.Since(start).Seconds()*1e3)
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		fmt.Printf("  %s (%.1f KB)\n", p, float64(st.Size())/1e3)
	}
	return nil
}

// parseBatchSizes parses the -batches list.
func parseBatchSizes(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		k, err := strconv.Atoi(f)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad batch size %q in -batches", f)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-batches named no batch sizes")
	}
	return out, nil
}

// runMultiVendor is party 0: it trains every registered model, accepts one
// 2PC link per (model, shard), and serves each link's session concurrently
// until the gateway closes them.
func runMultiVendor(cfg config) error {
	reg, err := buildRegistry(cfg)
	if err != nil {
		return err
	}
	reg.SetFlushDeadline(cfg.flushDeadline)
	n := reg.TotalShards()
	l, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	defer l.Close()
	if cfg.store != "" {
		fmt.Println("party 0: serving from per-shard correlation stores under", cfg.store)
	}
	fmt.Printf("party 0: models %v shared across %d shard link(s) on %s\n", reg.Models(), n, cfg.listen)
	if cfg.lifecycle {
		// A lifecycle gateway dials later shard generations at arbitrary
		// times, so the vendor keeps accepting links until interrupted —
		// and records the provisioning policy so those generations get
		// fresh store pairs matching the gateway's.
		if cfg.store != "" {
			batches, err := parseBatchSizes(cfg.batches)
			if err != nil {
				return err
			}
			reg.SetProvision(batches, cfg.flushes)
		}
		fmt.Println("party 0: lifecycle mode — accepting shard links (including later generations) until interrupted")
		gateway.ServeShardsLoop(l, reg, func(err error) {
			// A dying link is the normal prelude to its revival here, so
			// log it instead of failing the vendor.
			fmt.Println("party 0: shard link ended:", err)
		})
		return nil
	}
	if err := gateway.ServeShards(l, reg, n); err != nil {
		return err
	}
	fmt.Println("party 0: all shard sessions closed")
	return nil
}

// runGateway is party 1: it owns one persistent session pair per (model,
// shard), batches queries per shard, and routes each
// client query through the dispatch scheduler (round-robin or
// queue-aware, serialized or pipelined flushes, optional lifecycle
// revival of dead pairs and store rollover of live ones).
func runGateway(cfg config) error {
	reg, err := buildRegistry(cfg)
	if err != nil {
		return err
	}
	// One registry observes the whole gateway: wire accounting on every
	// shard link, flush-phase spans and per-op timings on every
	// session, the dispatcher's admission/queue bookkeeping, and the
	// lifecycle event ring. -metrics-addr and -status-json both export
	// it, so the two views can never disagree.
	obsReg := obs.New()
	opts := gateway.RouterOptions{
		Batch:         cfg.batch,
		Window:        cfg.window,
		Pipeline:      cfg.pipeline,
		QueueCap:      cfg.queueCap,
		FlushDeadline: cfg.flushDeadline,
		QueueTarget:   cfg.queueTarget,
		Obs:           obsReg,
		Dial:          func(gateway.ShardDesc) (transport.Conn, error) { return transport.Dial(cfg.connect) },
	}
	switch cfg.sched {
	case "roundrobin":
	case "queue":
		opts.Policy = sched.QueueAware
	default:
		return fmt.Errorf("unknown -sched %q (want roundrobin or queue)", cfg.sched)
	}
	if cfg.quota > 0 {
		opts.ModelQuotas = map[string]int{}
		for _, id := range reg.Models() {
			opts.ModelQuotas[id] = cfg.quota
		}
	}
	// -reprovision is the lifecycle's rollover floor, so it implies
	// -lifecycle on this side.
	if cfg.lifecycle || cfg.reprovision > 0 {
		opts.Lifecycle = &sched.LifecycleOptions{BudgetFloor: cfg.reprovision}
		if cfg.store != "" {
			// Revived and rolled-over generations get fresh store pairs of
			// this coverage; the vendor derives the same policy from its
			// own flags.
			batches, err := parseBatchSizes(cfg.batches)
			if err != nil {
				return err
			}
			reg.SetProvision(batches, cfg.flushes)
		}
	}
	fmt.Printf("gateway: connecting %d shard link(s) to %s\n", reg.TotalShards(), cfg.connect)
	rt, err := gateway.NewRouter(reg, opts)
	if err != nil {
		return err
	}
	if cfg.store != "" {
		fmt.Println("gateway: serving from per-shard correlation stores under", cfg.store)
	}
	fmt.Printf("gateway: sessions up (%s dispatch%s), batching up to %d queries per %v window per shard\n",
		cfg.sched, map[bool]string{true: ", pipelined flushes"}[cfg.pipeline], cfg.batch, cfg.window)
	stopMonitor := make(chan struct{})
	if cfg.budgetWarn > 0 {
		go budgetMonitor(rt, cfg.budgetWarn, stopMonitor)
	}
	status := func() statusDoc {
		return statusDoc{Shards: rt.Status(), Metrics: obsReg.Snapshot()}
	}
	// -metrics-addr: live HTTP export of the same registry the status
	// file snapshots — Prometheus text at /metrics, the unified status
	// document at /status.json.
	if cfg.metricsAddr != "" {
		msrv, err := serveMetrics(cfg.metricsAddr, obsReg, status)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Println("gateway: serving /metrics and /status.json on", cfg.metricsAddr)
	}
	// -status-json: dump the live unified status document on demand
	// (SIGUSR1) and once more at shutdown, so operators can watch
	// admission counters and wire accounting without scraping logs.
	var sig chan os.Signal
	if cfg.statusJSON != "" {
		sig = make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGUSR1)
		go func() {
			for range sig {
				if err := writeStatusJSON(cfg.statusJSON, status()); err != nil {
					fmt.Println("gateway: status dump:", err)
				} else {
					fmt.Println("gateway: status dumped to", cfg.statusJSON)
				}
			}
		}()
	}

	var serveErr error
	if cfg.clientListen == "" {
		runGatewayLocalQueries(cfg, reg, rt)
	} else if l, err := net.Listen("tcp", cfg.clientListen); err != nil {
		serveErr = err
	} else {
		serveErr = serveClients(l, cfg.clients, func(c transport.Conn) error {
			return handleGatewayClient(c, rt, reg)
		})
	}
	close(stopMonitor)
	if err := rt.Close(); err != nil {
		return err
	}
	if cfg.statusJSON != "" {
		signal.Stop(sig)
		close(sig)
		if err := writeStatusJSON(cfg.statusJSON, status()); err != nil {
			fmt.Println("gateway: final status dump:", err)
		} else {
			fmt.Println("gateway: final status dumped to", cfg.statusJSON)
		}
	}
	sent := laneSentBytes(obsReg.Snapshot())
	for _, st := range rt.Status() {
		line := fmt.Sprintf("gateway: %s shard %d served %d queries in %d flushes, %d bytes sent",
			st.Model, st.Shard, st.Queries, st.Flushes, sent[[2]string{st.Model, strconv.Itoa(st.Shard)}])
		if st.EWMAFlushMS > 0 || st.EWMARowMS > 0 {
			line += fmt.Sprintf(" (≈%.1fms + %.2fms/row per flush, speed ×%.2f)", st.EWMAFlushMS, st.EWMARowMS, st.Speed)
		}
		if st.Shed > 0 || st.Deadlined > 0 {
			line += fmt.Sprintf(" (admitted %d, shed %d, deadline deaths %d)", st.Admitted, st.Shed, st.Deadlined)
		}
		if st.Budget >= 0 {
			line += fmt.Sprintf(" (budget: %d correlations left)", st.Budget)
		}
		if st.Fallbacks > 0 {
			line += fmt.Sprintf(" (%d fell back to the live dealer — geometry not preprocessed)", st.Fallbacks)
		}
		if st.Revived > 0 {
			line += fmt.Sprintf(" (revived ×%d, generation %d)", st.Revived, st.Gen)
		}
		if st.Reprovisioned > 0 {
			line += fmt.Sprintf(" (re-provisioned ×%d, generation %d)", st.Reprovisioned, st.Gen)
		}
		if st.Quarantined {
			line += " (QUARANTINED: " + st.Down + ")"
		} else if st.Down != "" {
			line += " (down: " + st.Down + ")"
		}
		fmt.Println(line)
	}
	return serveErr
}

// laneSentBytes sums the registry's per-frame-kind sent-byte counters into
// one payload total per (model, shard) lane.
func laneSentBytes(snap *obs.Snapshot) map[[2]string]int64 {
	sent := map[[2]string]int64{}
	for _, c := range snap.Counters {
		if c.Name == "pasnet_wire_sent_bytes_total" {
			sent[[2]string{c.Labels["model"], c.Labels["shard"]}] += int64(c.Value)
		}
	}
	return sent
}

// statusDoc is the gateway's unified status document: the shard routing
// table plus the full metrics snapshot (wire/round counters, flush-phase
// histograms, sched/admission series, event-ring tail) from the one
// registry /metrics also exports — so the SIGUSR1 file, /status.json and
// a Prometheus scrape can never disagree about what the fleet did.
type statusDoc struct {
	Shards  []gateway.ShardStatus `json:"shards"`
	Metrics *obs.Snapshot         `json:"metrics"`
}

// writeStatusJSON publishes one status snapshot atomically (temp file +
// rename), so a reader polling the path never sees a torn dump.
func writeStatusJSON(path string, doc statusDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// serveMetrics starts the observability HTTP server: Prometheus text at
// /metrics, the unified status document at /status.json. The returned
// server is closed at gateway shutdown.
func serveMetrics(addr string, reg *obs.Registry, status func() statusDoc) (*http.Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.PromHandler())
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(status())
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(l) }()
	return srv, nil
}

// budgetMonitor polls the router's status and logs a re-provision warning
// the first time each shard generation's remaining preprocessed budget
// drops below the threshold — the operator's cue to re-provision before
// exhaustion kills the pair mid-deployment (ROADMAP's budget telemetry).
func budgetMonitor(rt *gateway.Router, threshold int, stop <-chan struct{}) {
	warned := map[string]bool{}
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for _, st := range rt.Status() {
			if st.Budget < 0 || st.Budget >= threshold || st.Down != "" {
				continue
			}
			key := fmt.Sprintf("%s/%d@%d", st.Model, st.Shard, st.Gen)
			if warned[key] {
				continue
			}
			warned[key] = true
			fmt.Printf("gateway: WARNING: %s shard %d (generation %d) is down to %d preprocessed correlations (< %d) — re-provision before exhaustion\n",
				st.Model, st.Shard, st.Gen, st.Budget, threshold)
		}
	}
}

// runGatewayLocalQueries is the gateway's in-process multi-query mode:
// -queries concurrent submissions round-robin across the registered
// models, all through the shard router.
func runGatewayLocalQueries(cfg config, reg *gateway.Registry, rt *gateway.Router) {
	d := buildDataset(cfg.seed)
	ids := reg.Models()
	var wg sync.WaitGroup
	for q := 0; q < cfg.queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			model := ids[q%len(ids)]
			x, _ := d.Batch([]int{queryIndex(cfg.seed, q, d.Len())})
			start := time.Now()
			logits, err := rt.Submit(model, x)
			if err != nil {
				fmt.Printf("query %d (%s): %v\n", q, model, err)
				return
			}
			fmt.Printf("query %d (%s): logits %.4f  (%.1f ms round trip)\n",
				q, model, logits, time.Since(start).Seconds()*1e3)
		}(q)
	}
	wg.Wait()
}

// serveClients accepts n client connections from l (which it owns) and
// pipes each through the given per-connection handler, so concurrent
// clients land in shared flushes. It returns only once every accepted
// connection's handler has — on an accept error too: the caller closes the
// router next, which must never happen under a live handler.
func serveClients(l net.Listener, n int, handle func(transport.Conn) error) error {
	defer l.Close()
	fmt.Printf("accepting %d client connection(s) on %s\n", n, l.Addr())
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < n; i++ {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(id int, nc net.Conn) {
			defer wg.Done()
			if err := handle(transport.NewTCPConn(nc)); err != nil {
				fmt.Printf("client %d: %v\n", id, err)
			}
		}(i, nc)
	}
	return nil
}

// replyWriter drains per-query wait functions in submission order and
// writes each reply frame back to the client: the logits on success, a
// descriptive error frame on failure — so one bad query never drops the
// connection or poisons co-batched clients.
type replyWriter struct {
	waits    chan func() ([]float64, error)
	writeErr chan error // the writer sends exactly one value
}

func newReplyWriter(tc transport.Conn) *replyWriter {
	w := &replyWriter{
		waits:    make(chan func() ([]float64, error), 256),
		writeErr: make(chan error, 1),
	}
	go func() {
		for wait := range w.waits {
			logits, err := wait()
			var werr error
			if err != nil {
				fmt.Println("query error:", err)
				werr = tc.SendError(err.Error())
			} else {
				werr = tc.SendUint64s(floatBits(logits))
			}
			if werr != nil {
				w.writeErr <- werr
				return
			}
		}
		w.writeErr <- nil
	}()
	return w
}

// enqueue hands a wait function to the writer without deadlocking if the
// writer already died on a send error: the error arrives on writeErr
// instead of a spot ever opening up in waits. writeErr is checked first,
// because a dead writer leaves both arms of the blocking select ready
// (waits is buffered) and Go would pick at random — admitting queries, and
// burning 2PC flushes, for a client that can no longer be answered.
func (w *replyWriter) enqueue(wait func() ([]float64, error)) error {
	select {
	case err := <-w.writeErr:
		return err
	default:
	}
	select {
	case w.waits <- wait:
		return nil
	case err := <-w.writeErr:
		return err
	}
}

// fail reports one query's failure as a descriptive error frame.
func (w *replyWriter) fail(err error) error {
	return w.enqueue(func() ([]float64, error) { return nil, err })
}

// finish closes the reply stream and waits for the writer.
func (w *replyWriter) finish() error {
	close(w.waits)
	return <-w.writeErr
}

// handleGatewayClient serves one client connection: queries arrive as
// (model+shape, data) frame pairs and are enqueued on the shard router in
// arrival order without blocking the read loop (so one client's pipelined
// queries share a flush, packed deterministically); replies go back in
// submission order. Shape/model mismatches come back as descriptive
// per-query error frames without touching the router, so one bad client
// query can never poison a shared flush or a 2PC session. The data frame
// is received through the bounded path sized by the validated shape (or
// the registry-wide maximum when the query was rejected, so draining
// cannot be abused either) — a hostile length header is rejected before
// any allocation.
func handleGatewayClient(tc transport.Conn, rt *gateway.Router, reg *gateway.Registry) error {
	defer tc.Close()
	w := newReplyWriter(tc)
	maxElems := registryMaxElems(reg)
	for {
		model, shape, err := tc.RecvModelShape()
		if err != nil || (model == "" && len(shape) == 0) {
			if werr := w.finish(); werr != nil {
				return werr
			}
			return err
		}
		elems, queryErr := validateGatewayQuery(reg, model, shape)
		// Bounded receive with modest slack over the declared shape: bad
		// queries (including payload-size mismatches) get error frames
		// without desyncing the stream; only hostile headers kill the link.
		vals, err := tc.RecvUint64sMax(drainElems(shape, maxElems))
		if err != nil {
			_ = w.finish()
			return err
		}
		if queryErr != nil {
			if err := w.fail(queryErr); err != nil {
				return err
			}
			continue
		}
		if len(vals) != elems {
			if err := w.fail(fmt.Errorf("model %q query payload %d values, shape %v wants %d", model, len(vals), shape, elems)); err != nil {
				return err
			}
			continue
		}
		x := tensor.New(shape...)
		copy(x.Data, bitsToFloats(vals))
		if err := w.enqueue(rt.SubmitAsync(model, x)); err != nil {
			return err
		}
	}
}

// drainElems bounds the data-frame receive for a query with the given
// declared shape: eight times the declared payload, floored at the
// largest legal query — so an honest-but-buggy client (a rejected shape,
// a frame off the declared size, even a legal payload behind a garbage
// shape header) still gets its descriptive per-query error frame and
// keeps the connection — and capped at eight times the largest legal
// query, so a hostile declaration still dies at the bounded receive
// instead of driving a huge allocation. Overflow-safe for garbage dims.
func drainElems(shape []int, maxLegal int) int {
	limit := 8 * maxLegal
	n := 1
	for _, d := range shape {
		if d <= 0 || n > limit/d {
			return limit
		}
		n *= d
	}
	if n > limit/8 {
		return limit
	}
	if 8*n < maxLegal {
		return maxLegal
	}
	return 8 * n
}

// validateGatewayQuery resolves and validates one gateway query header,
// returning its exact payload element count.
func validateGatewayQuery(reg *gateway.Registry, model string, shape []int) (int, error) {
	spec, err := reg.Lookup(model)
	if err != nil {
		return 0, err
	}
	return spec.ValidateQuery(shape)
}

// registryMaxElems is the largest legal query payload across registered
// models — the drain bound for rejected queries.
func registryMaxElems(reg *gateway.Registry) int {
	max := 1
	for _, id := range reg.Models() {
		if spec, err := reg.Lookup(id); err == nil {
			if n := spec.MaxQueryElems(); n > max {
				max = n
			}
		}
	}
	return max
}

// runClient submits -queries queries to the serving party and prints each
// reply. All queries are pipelined before the first reply is read, so a
// single client exercises the batching path end to end.
func runClient(cfg config) error {
	model := cfg.model
	if model == "" {
		names := splitList(cfg.models)
		if len(names) == 0 {
			return fmt.Errorf("client role needs -model (or a -models list to take the first entry of)")
		}
		model = names[0]
	}
	d := buildDataset(cfg.seed)
	tc, err := transport.Dial(cfg.clientConnect)
	if err != nil {
		return err
	}
	defer tc.Close()
	start := time.Now()
	var maxReply int
	for q := 0; q < cfg.queries; q++ {
		x, _ := d.Batch([]int{queryIndex(cfg.seed, q, d.Len())})
		if err := tc.SendModelShape(model, x.Shape); err != nil {
			return err
		}
		if err := tc.SendUint64s(floatBits(x.Data)); err != nil {
			return err
		}
		if n := len(x.Data); n > maxReply {
			maxReply = n
		}
	}
	// End of query stream.
	if err := tc.SendModelShape("", nil); err != nil {
		return err
	}
	for q := 0; q < cfg.queries; q++ {
		// A reply is at most one logit row per query row — far smaller than
		// the query itself, so the query size bounds the reply receive.
		vals, errMsg, err := tc.RecvReply(maxReply)
		if err != nil {
			return fmt.Errorf("reply %d: %w", q, err)
		}
		if errMsg != "" {
			fmt.Printf("query %d: rejected server-side: %s\n", q, errMsg)
			continue
		}
		fmt.Printf("query %d: logits %.4f\n", q, bitsToFloats(vals))
	}
	el := time.Since(start).Seconds()
	fmt.Printf("client: %d queries in %.1f ms (%.1f ms/query amortized)\n",
		cfg.queries, el*1e3, el*1e3/float64(cfg.queries))
	return nil
}

// floatBits reinterprets float64s as their IEEE bit patterns for framing;
// bitsToFloats is its inverse on the receive side.
func floatBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func bitsToFloats(vs []uint64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64frombits(v)
	}
	return out
}
