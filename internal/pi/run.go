package pi

import (
	"fmt"
	"io"
	"math"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// Result reports one private inference run over a packed batch of
// queries.
type Result struct {
	// Output is the reconstructed logits, row-major over the batch.
	Output []float64
	// PerQuery is Output demultiplexed per query (len Batch).
	PerQuery [][]float64
	// Plain is the plaintext reference evaluation.
	Plain []float64
	// MaxAbsErr is MaxAbsErr(Output, Plain).
	MaxAbsErr float64
	// Batch is the number of queries evaluated in this run.
	Batch int
	// OnlineBytes is the measured traffic of the one flush (both parties,
	// excluding session setup).
	OnlineBytes int64
	// SetupBytes is the measured traffic of bringing both sessions up:
	// party 0's one frame of every weight's F = W−b.
	SetupBytes int64
	// OnlineSeconds is the wall-clock of the flush — shape and source
	// rounds, every layer protocol and output reconstruction, with both
	// parties running concurrently. Session
	// setup is excluded. On the live-dealer path this still includes lazy
	// correlation generation; on the preprocessed path it does not — that
	// cost moves to OfflineSeconds, the split the paper's online latency
	// numbers assume.
	OnlineSeconds float64
	// OfflineSeconds is the wall-clock of the preprocessing phase (demand
	// trace plus store pair generation) when RunOptions.Preprocess is set;
	// 0 on the live-dealer path.
	OfflineSeconds float64
}

// RunOptions selects execution-phase behavior for Run.
type RunOptions struct {
	// Preprocess moves correlation generation into a measured offline
	// phase: the demand tape is traced once for the batch geometry and
	// both parties' stores are generated before the online clock starts.
	// Stores deal through the live dealer's own generator (mpc.Stream), so
	// outputs are bit-identical to the live-dealer path under the same seed.
	Preprocess bool
	// Obs, when non-nil, instruments party 1's session (Session.Instrument):
	// flush-phase spans, and per-op wall times on Obs.OpFeed() — the
	// latency-LUT calibration input.
	Obs *obs.Registry
}

// Run executes a full private inference of a trained model the way a
// deployment serves it: a party-0 and a party-1 Session over an in-memory
// link are brought up (party 0 sends every F = W−b), then party 1
// queries the packed batch (PackQueries) in one flush and closes. The
// result is checked against plaintext evaluation, and both parties must
// reconstruct identical logits.
func Run(m *models.Model, queries []*tensor.Tensor, seed uint64, opt RunOptions) (*Result, error) {
	if m.Net == nil {
		return nil, fmt.Errorf("pi: model %q has no trained network", m.Name)
	}
	x, counts, err := PackQueries(queries)
	if err != nil {
		return nil, err
	}
	plain := m.Net.Forward(x, false)

	c0, c1 := transport.Pipe()
	wires := [2]*obs.WireConn{obs.InstrumentConn(c0, nil), obs.InstrumentConn(c1, nil)}
	defer wires[0].Close()
	defer wires[1].Close()
	links := [2]io.Closer{wires[0], wires[1]}
	var sess [2]*Session
	err = mpc.RunPair(links, func(id int) error {
		p := mpc.NewParty(id, wires[id], seed, seed*31+uint64(id)+1, fixed.Default64())
		var expect []int
		if id == 0 {
			expect = x.Shape
		}
		var err error
		sess[id], err = NewSessionOpts(p, m, expect, SessionOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	setupBytes := wires[0].Totals().SentBytes + wires[1].Totals().SentBytes

	// Offline phase: trace the correlation demand for this batch geometry
	// and deal both parties' stores off the stream the live dealer would
	// consume lazily.
	var offlineSeconds float64
	if opt.Preprocess {
		start := time.Now()
		tape, err := TraceTape(sess[0].eng.Prog, x.Shape)
		if err != nil {
			return nil, err
		}
		s0, s1, err := corr.BuildPair(tape, rng.New(seed), seed)
		if err != nil {
			return nil, err
		}
		pair := storePair{s0, s1}
		sess[0].UsePreprocessed(pair)
		sess[1].UsePreprocessed(pair)
		offlineSeconds = time.Since(start).Seconds()
	}
	if opt.Obs != nil {
		sess[1].Instrument(opt.Obs, "model", m.Name)
	}

	var outputs [2][]float64
	start := time.Now()
	err = mpc.RunPair(links, func(id int) error {
		var err error
		if id == 0 {
			outputs[0], _, err = sess[0].ServeOne()
		} else {
			outputs[1], err = sess[1].Query(x)
		}
		return err
	})
	onlineSeconds := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	onlineBytes := wires[0].Totals().SentBytes + wires[1].Totals().SentBytes - setupBytes
	if err := sess[1].Close(); err != nil {
		return nil, err
	}
	for i := range outputs[0] {
		if outputs[0][i] != outputs[1][i] {
			return nil, fmt.Errorf("pi: parties reconstructed different outputs at %d", i)
		}
	}

	res := &Result{
		Output:         outputs[1],
		Plain:          append([]float64(nil), plain.Data...),
		Batch:          len(counts),
		SetupBytes:     setupBytes,
		OnlineBytes:    onlineBytes,
		OnlineSeconds:  onlineSeconds,
		OfflineSeconds: offlineSeconds,
	}
	res.MaxAbsErr = MaxAbsErr(res.Output, res.Plain)
	if res.PerQuery, err = SplitLogits(res.Output, counts); err != nil {
		return nil, err
	}
	return res, nil
}

// storePair is the SourceProvider of Run's preprocessed path: each party
// gets its half of the one store pair dealt for the flush geometry.
type storePair [2]*corr.Store

func (sp storePair) SourceFor(party int, _ []int) (mpc.CorrelationSource, error) {
	return sp[party], nil
}

// MaxAbsErr is the largest |got−want| element: the distance of private
// logits from their plaintext reference. A length mismatch or a NaN on
// either side is +Inf — never smaller than a real deviation, so a bound
// check cannot pass on garbage.
func MaxAbsErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var worst float64
	for i, v := range got {
		d := math.Abs(v - want[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = max(worst, d)
	}
	return worst
}
