// Command benchmark is the repo's performance ledger: it drives four fixed
// workloads through the real serving path — client → gateway.Router.Submit
// → sched lane → pi.Session → mpc/ot/kernel over transport, both parties
// in this process — verifies every reply against the plaintext model, and
// prints the end-to-end metrics (--trace 0) or the per-layer ledger of a
// traced pass plus layer probes (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json mirrors these
// two lists (the smoke test holds them equal).
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_qps", "rows/s"},
	{"online_kb_per_query", "KB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"gateway.query_ms_p50", "ms"},
	{"gateway.query_ms_mean", "ms"},
	{"gateway.router_setup_s", "s"},
	{"sched.queue_gather_ms_p50", "ms"},
	{"sched.queue_gather_ms_mean", "ms"},
	{"sched.rows_per_flush", "rows"},
	{"sched.dispatch_us_per_query", "us"},
	{"pi.flush_ms_p50", "ms"},
	{"pi.local_ms_per_flush", "ms"},
	{"pi.query_ms_p50", "ms"},
	{"pi.session_setup_s", "s"},
	{"pi.logit_err_max", "abs"},
	{"mpc.relu_us_per_elem", "us"},
	{"mpc.relu_frames_per_call", "count"},
	{"mpc.relu_bytes_per_elem", "B"},
	{"mpc.relu_elems_per_flush", "count"},
	{"mpc.relu_link_ms_per_flush", "ms"},
	{"mpc.relu_share_of_query", "frac"},
	{"mpc.maxpool_us_per_elem", "us"},
	{"mpc.x2act_us_per_elem", "us"},
	{"mpc.x2act_elems_per_flush", "count"},
	{"mpc.conv_fixedw_ms_per_flush", "ms"},
	{"mpc.dealer_ms_per_flush", "ms"},
	{"ot.us_per_transfer", "us"},
	{"kernel.macs_per_flush", "count"},
	{"kernel.ring_linear_ms_per_flush", "ms"},
	{"kernel.ring_gmacs_per_s", "GMAC/s"},
	{"kernel.f64_gmacs_per_s", "GMAC/s"},
	{"transport.frames_per_flush", "count"},
	{"transport.rounds_per_flush", "count"},
	{"transport.send_ms_per_flush", "ms"},
	{"transport.recv_wait_ms_per_flush", "ms"},
	{"transport.recv_wait_share_of_query", "frac"},
	{"transport.p0_recv_wait_ms_per_flush", "ms"},
	{"transport.one_way_ms", "ms"},
	{"transport.delay_floor_ms_per_flush", "ms"},
	{"corr.build_ms_per_flush", "ms"},
	{"corr.store_kb_per_query", "KB"},
	{"corr.load_mb_per_s", "MB/s"},
	{"corr.fallback_flushes", "count"},
	{"proc.alloc_kb_per_query", "KB"},
	{"proc.gc_pause_ms_total", "ms"},
	{"trace.self_sum_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// scratchDir is where a run keeps its stores; outDir where traced runs and
// suites write their files. Both are relative to the checkout root the
// benchmark is run from, and ignored by git.
const (
	scratchDir = ".bench_build"
	outDir     = "benchmark/out"
)

// runConfig is what the driver's arguments say about one run.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	probes  probeSizes
	// traceOut is where a traced run writes its spans ("": nowhere).
	traceOut string
}

// runOne runs one workload once, prints the human-readable report, and
// returns the result.
func runOne(w *workload, cfg runConfig) (*runResult, error) {
	sm, err := trainModel(w.Class)
	if err != nil {
		return nil, fmt.Errorf("train %s model: %w", w.Class, err)
	}
	pool, err := queryPool(sm, cfg.seed, w.Rows)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	target := time.Duration(cfg.seconds * w.WindowFrac * float64(time.Second))
	plain, traced, err := passes(sm, w, pool, cfg.seed, target, scratch, tr)
	if err != nil {
		return nil, err
	}

	res := &runResult{Metrics: map[string]metricValue{}}
	var invalid []string
	for _, p := range []*passResult{plain, traced} {
		if p == nil {
			continue
		}
		res.Attempted += p.Warmup.Attempted + p.Measured.Attempted
		res.Failed += p.Warmup.Failed + p.Measured.Failed
		invalid = append(invalid, p.Invalid...)
	}
	report := func(name string, p *passResult) {
		fmt.Printf("%s %s pass: warm-up attempted %d succeeded %d failed %d; measured attempted %d succeeded %d failed %d; %d epochs, %.2f s measured\n",
			w.Name, name, p.Warmup.Attempted, p.Warmup.Succeeded, p.Warmup.Failed,
			p.Measured.Attempted, p.Measured.Succeeded, p.Measured.Failed, len(p.SetupS), p.WindowS)
	}
	report("untraced", plain)
	if len(plain.LatencyMS) == 0 {
		return nil, fmt.Errorf("%s: no query succeeded", w.Name)
	}

	var defs []metricDef
	var values map[string]float64
	if !cfg.trace {
		defs = endToEndMetrics
		values = map[string]float64{
			"latency_p50_ms": median(plain.LatencyMS),
			"latency_p90_ms": quantile(plain.LatencyMS, 0.9),
			"throughput_qps": float64(plain.Rows) / plain.WindowS,
			// Bytes per row first: an exact quotient on the single-client
			// workloads, so the figure repeats to the last digit.
			"online_kb_per_query": float64(plain.WireBytes) / float64(plain.Rows) / 1e3,
			"setup_s":             median(plain.SetupS),
		}
	} else {
		report("traced", traced)
		// Probes are shaped to the one-query flush on every workload (the
		// fleet's gather averages under 2 of its Batch 4), so their
		// figures compare across workloads.
		fs, err := traceFlushShape(sm, w.Rows)
		if err != nil {
			return nil, err
		}
		pr, err := runProbes(sm, w, fs, pool, cfg.probes, scratch)
		if err != nil {
			return nil, fmt.Errorf("%s probes: %w", w.Name, err)
		}
		led, flushes, parents := tr.reduce()
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut, flushes, parents); err != nil {
				return nil, err
			}
		}
		if len(led.QueryMS) == 0 || len(led.FlushMS) == 0 {
			return nil, fmt.Errorf("%s: traced pass recorded %d queries and %d flushes", w.Name, len(led.QueryMS), len(led.FlushMS))
		}
		if w.Clients == 1 && (led.Unmatched > 0 || led.SelfSumFrac < 0.98 || led.SelfSumFrac > 1.02) {
			invalid = append(invalid, fmt.Sprintf("trace: %d unmatched queries, self times sum to %.4f of query time (want within 2%%)", led.Unmatched, led.SelfSumFrac))
		}
		defs = perLayerMetrics
		values = ledgerMetrics(w, plain, traced, led, fs, pr)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s could not be produced (%v)", w.Name, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-38s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, why := range invalid {
		fmt.Printf("INVALID %s: %s\n", w.Name, why)
	}
	res.Correct = res.Failed == 0 && len(invalid) == 0
	return res, nil
}

// ledgerMetrics assembles the per-layer metrics from the two passes of a
// traced run, the reduced trace, the flush's shape and the probes.
func ledgerMetrics(w *workload, plain, traced *passResult, led *ledger, fs *flushShape, pr *probeResult) map[string]float64 {
	queryMean := mean(led.QueryMS)
	queries := float64(plain.Measured.Succeeded)
	reluMS := pr.ReLULink.sec * 1e3
	return map[string]float64{
		"gateway.query_ms_p50":   median(led.QueryMS),
		"gateway.query_ms_mean":  queryMean,
		"gateway.router_setup_s": median(append(append([]float64(nil), plain.RouterS...), traced.RouterS...)),

		"sched.queue_gather_ms_p50":   median(led.QueueGatherMS),
		"sched.queue_gather_ms_mean":  mean(led.QueueGatherMS),
		"sched.rows_per_flush":        led.RowsPerFlush,
		"sched.dispatch_us_per_query": pr.DispatchUSPerQuery,

		"pi.flush_ms_p50":       median(led.FlushMS),
		"pi.local_ms_per_flush": led.LocalMS,
		"pi.query_ms_p50":       median(pr.SessionQueryMS),
		"pi.session_setup_s":    pr.SessionSetupS,
		"pi.logit_err_max":      max(plain.MaxErr, traced.MaxErr),

		"mpc.relu_us_per_elem":     pr.ReLU.sec * 1e6 / float64(pr.ReLU.elems),
		"mpc.relu_frames_per_call": float64(pr.ReLU.frames) / float64(pr.ReLU.calls),
		"mpc.relu_bytes_per_elem":  float64(pr.ReLU.bytes) / float64(pr.ReLU.elems),
		"mpc.relu_elems_per_flush": float64(fs.reluElems()),
		// The ReLU probe at the program's own ReLU shapes on the workload's
		// own link — comparison compute plus the comparison protocol's
		// rounds — as a share of the traced query.
		"mpc.relu_link_ms_per_flush":   reluMS,
		"mpc.relu_share_of_query":      reluMS / queryMean,
		"mpc.maxpool_us_per_elem":      pr.MaxPool.sec * 1e6 / float64(pr.MaxPool.elems),
		"mpc.x2act_us_per_elem":        pr.X2Act.sec * 1e6 / float64(pr.X2Act.elems),
		"mpc.x2act_elems_per_flush":    float64(fs.polyElems()),
		"mpc.conv_fixedw_ms_per_flush": pr.LinearFixedWSec * 1e3,
		"mpc.dealer_ms_per_flush":      pr.DealerSec * 1e3,

		"ot.us_per_transfer": pr.OTUSPerTransfer,

		"kernel.macs_per_flush":           float64(fs.macs),
		"kernel.ring_linear_ms_per_flush": pr.RingSec * 1e3,
		"kernel.ring_gmacs_per_s":         float64(fs.macs) / pr.RingSec / 1e9,
		"kernel.f64_gmacs_per_s":          float64(fs.macs) / pr.F64Sec / 1e9,

		// Frames are counted on the untraced pass's links (exact);
		// rounds and times come from the traced spans.
		"transport.frames_per_flush":          float64(plain.WireFrames) / float64(plain.Flushes),
		"transport.rounds_per_flush":          led.RoundsPerFlush,
		"transport.send_ms_per_flush":         led.SendMS,
		"transport.recv_wait_ms_per_flush":    led.RecvMS,
		"transport.recv_wait_share_of_query":  led.RecvMS / led.RowsPerFlush * float64(w.Rows) / queryMean,
		"transport.p0_recv_wait_ms_per_flush": led.P0RecvMS,
		"transport.one_way_ms":                pr.OneWaySec * 1e3,
		"transport.delay_floor_ms_per_flush":  led.RoundsPerFlush * pr.OneWaySec * 1e3,

		"corr.build_ms_per_flush": pr.Corr.buildSec * 1e3,
		"corr.store_kb_per_query": float64(pr.Corr.storeBytes) / 1e3,
		"corr.load_mb_per_s":      pr.Corr.loadMBps,
		"corr.fallback_flushes":   float64(plain.Fallbacks + traced.Fallbacks),

		"proc.alloc_kb_per_query": float64(plain.AllocBytes) / 1e3 / queries,
		"proc.gc_pause_ms_total":  float64(plain.GCPauseNS) / 1e6,

		"trace.self_sum_frac": led.SelfSumFrac,
		"trace.overhead_frac": median(traced.LatencyMS)/median(plain.LatencyMS) - 1,
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json, or \"all\" for the suite")
	seed := flag.Uint64("seed", 1, "draws query contents and client start order")
	seconds := flag.Float64("seconds", 20, "length of the measured window of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and layer probes, per-layer metrics")
	repeat := flag.Int("repeat", 1, "with -workload all: how many times to run the suite")
	label := flag.String("label", "suite", "with -workload all: results are written to benchmark/out/<label>.json")
	compare := flag.Bool("compare", false, "compare two suite result files given as arguments, using the bounds in BENCHMARK.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name == "all":
		ok, err := runSuite(*seed, *seconds, *repeat, *label)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1"))
		}
		if *seconds <= 0 {
			fatal(fmt.Errorf("-seconds must be positive"))
		}
		res, err := runOne(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, probes: fullProbes, traceOut: filepath.Join(outDir, "trace.json")})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
