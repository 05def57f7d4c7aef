package pi

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// Result reports one private inference run (a single query or a packed
// multi-query batch).
type Result struct {
	// Output is the reconstructed logits, row-major over the batch.
	Output []float64
	// PerQuery is Output demultiplexed per packed query (len Batch).
	PerQuery [][]float64
	// Plain is the plaintext reference evaluation.
	Plain []float64
	// MaxAbsErr is the largest |Output−Plain| element.
	MaxAbsErr float64
	// Batch is the number of queries evaluated in this run.
	Batch int
	// OnlineBytes is the measured traffic of the inference phase (both
	// parties, excluding model-share setup).
	OnlineBytes int64
	// SetupBytes is the measured one-time model-sharing traffic.
	SetupBytes int64
	// OnlineSeconds is the wall-clock of the online phase: input sharing,
	// every layer protocol, and output reconstruction, with both parties
	// running concurrently. Weight-share setup is excluded. On the
	// live-dealer path this still includes lazy correlation generation; on
	// the preprocessed path it does not — that cost moves to
	// OfflineSeconds, the split the paper's online latency numbers assume.
	OnlineSeconds float64
	// OfflineSeconds is the wall-clock of the preprocessing phase (demand
	// trace plus correlation store generation) when RunOptions.Preprocess
	// is set; 0 on the live-dealer path, where generation happens inline
	// and is charged to OnlineSeconds.
	OfflineSeconds float64
	// Preprocessed reports whether the online phase consumed a
	// preprocessed correlation store instead of the live dealer.
	Preprocessed bool
	// OnlineBytesPerQuery and OnlineSecondsPerQuery are the amortized
	// per-query online costs, the figures of merit for batched serving.
	OnlineBytesPerQuery   int64
	OnlineSecondsPerQuery float64
	// Modeled is the FPGA hardware model's cost for the network at paper
	// scale (from models.Model.Ops), the basis of the Table I columns.
	Modeled hwmodel.Cost
}

// RunOptions selects execution-phase behavior for Run/RunBatch variants.
type RunOptions struct {
	// Preprocess moves correlation generation into a measured offline
	// phase: the demand tape is traced once for the batch geometry and
	// both parties' stores are generated before the online clock starts.
	// Stores deal through the live dealer's own generator (mpc.Stream), so
	// outputs are bit-identical to the live-dealer path under the same seed.
	Preprocess bool
	// OpFeed, when non-nil, receives party 1's per-op wall times (see
	// Engine.SetOpFeed) — the latency-LUT calibration input.
	OpFeed *obs.OpFeed
}

// Run executes a full private inference of a trained model on input x
// (N×C×H×W, party 1's query), with both parties in-process over an
// in-memory transport. It verifies against plaintext evaluation. The N
// rows of x count as N queries for the amortized metrics.
func Run(m *models.Model, hw hwmodel.Config, x *tensor.Tensor, seed uint64) (*Result, error) {
	return RunOpt(m, hw, x, seed, RunOptions{})
}

// RunOpt is Run with explicit phase options.
func RunOpt(m *models.Model, hw hwmodel.Config, x *tensor.Tensor, seed uint64, opt RunOptions) (*Result, error) {
	batch := 1
	if len(x.Shape) > 0 {
		batch = x.Shape[0]
	}
	counts := make([]int, batch)
	for i := range counts {
		counts[i] = 1
	}
	return runPacked(m, hw, x, counts, seed, opt)
}

// RunBatch packs K independent queries into one N=K secure evaluation:
// every layer of the compiled program, and every protocol round beneath
// it, runs once for the whole batch. Result.PerQuery holds each query's
// logits; the amortized fields divide the batch's online cost evenly.
func RunBatch(m *models.Model, hw hwmodel.Config, queries []*tensor.Tensor, seed uint64) (*Result, error) {
	return RunBatchOpt(m, hw, queries, seed, RunOptions{})
}

// RunBatchOpt is RunBatch with explicit phase options.
func RunBatchOpt(m *models.Model, hw hwmodel.Config, queries []*tensor.Tensor, seed uint64, opt RunOptions) (*Result, error) {
	packed, counts, err := PackQueries(queries)
	if err != nil {
		return nil, err
	}
	return runPacked(m, hw, packed, counts, seed, opt)
}

// runPacked is the shared two-party executor behind Run and RunBatch.
func runPacked(m *models.Model, hw hwmodel.Config, x *tensor.Tensor, counts []int, seed uint64, opt RunOptions) (*Result, error) {
	if m.Net == nil {
		return nil, fmt.Errorf("pi: model %q has no trained network", m.Name)
	}
	prog, err := Compile(m.Net)
	if err != nil {
		return nil, err
	}
	plain := m.Net.Forward(x, false)

	// Offline phase: trace the correlation demand for this batch geometry
	// and pre-generate both parties' stores off the same dealer stream the
	// live path would consume lazily.
	var stores [2]*corr.Store
	var offlineSeconds float64
	if opt.Preprocess {
		offStart := time.Now()
		tape, err := TraceTape(prog, x.Shape)
		if err != nil {
			return nil, err
		}
		stores[0], stores[1], err = corr.BuildPair(tape, rng.New(seed), seed)
		if err != nil {
			return nil, err
		}
		offlineSeconds = time.Since(offStart).Seconds()
	}

	c0, c1 := transport.Pipe()
	wires := [2]*obs.WireConn{obs.InstrumentConn(c0, nil), obs.InstrumentConn(c1, nil)}
	codec := fixed.Default64()
	parties := [2]*mpc.Party{
		mpc.NewParty(0, wires[0], seed, seed*31+1, codec),
		mpc.NewParty(1, wires[1], seed, seed*31+2, codec),
	}
	var setupBytes int64
	outputs := [2][]float64{}
	errs := [2]error{}
	var setupMu sync.Mutex
	// The online clock starts only after both parties finish the one-time
	// weight sharing, so OnlineSeconds measures the deployed steady state.
	var setupWG sync.WaitGroup
	setupWG.Add(2)
	startOnline := make(chan struct{})

	var wg sync.WaitGroup
	for i, p := range parties {
		wg.Add(1)
		go func(i int, p *mpc.Party) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("pi: party %d panicked: %v", i, r)
				}
			}()
			if stores[i] != nil {
				p.Source = stores[i]
			}
			eng := NewEngine(prog)
			if i == 1 {
				eng.SetOpFeed(opt.OpFeed)
			}
			err := eng.Setup(p)
			setupMu.Lock()
			setupBytes += wires[i].Totals().SentBytes
			setupMu.Unlock()
			setupWG.Done()
			if err != nil {
				errs[i] = err
				return
			}
			<-startOnline

			var enc []uint64
			if p.ID == 1 {
				enc = p.EncodeTensor(x.Data)
			}
			xs, err := p.ShareInput(1, enc, x.Shape...)
			if err != nil {
				errs[i] = err
				return
			}
			out, err := eng.Infer(xs)
			if err != nil {
				errs[i] = err
				return
			}
			vals, err := p.Reveal(out)
			if err != nil {
				errs[i] = err
				return
			}
			outputs[i] = p.DecodeTensor(vals)
		}(i, p)
	}
	setupWG.Wait()
	onlineStart := time.Now()
	close(startOnline)
	wg.Wait()
	onlineSeconds := time.Since(onlineStart).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	totalBytes := wires[0].Totals().SentBytes + wires[1].Totals().SentBytes

	batch := len(counts)
	res := &Result{
		Output:         outputs[0],
		Plain:          append([]float64(nil), plain.Data...),
		Batch:          batch,
		SetupBytes:     setupBytes,
		OnlineBytes:    totalBytes - setupBytes,
		OnlineSeconds:  onlineSeconds,
		OfflineSeconds: offlineSeconds,
		Preprocessed:   opt.Preprocess,
		Modeled:        hwmodel.NetworkCost(hw, m.Ops),
	}
	if batch > 0 {
		res.OnlineBytesPerQuery = res.OnlineBytes / int64(batch)
		res.OnlineSecondsPerQuery = onlineSeconds / float64(batch)
	}
	res.PerQuery, err = SplitLogits(res.Output, counts)
	if err != nil {
		return nil, err
	}
	for i := range res.Output {
		if d := math.Abs(res.Output[i] - res.Plain[i]); d > res.MaxAbsErr {
			res.MaxAbsErr = d
		}
	}
	// Both parties must reconstruct identical outputs.
	for i := range outputs[0] {
		if outputs[0][i] != outputs[1][i] {
			return nil, fmt.Errorf("pi: parties reconstructed different outputs at %d", i)
		}
	}
	return res, nil
}
