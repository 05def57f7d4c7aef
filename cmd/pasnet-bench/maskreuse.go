package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pasnet/internal/fixed"
	"pasnet/internal/kernel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/pi"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// maskreuseResult compares one batch size's multi-flush serving cost with
// per-flush weight masking (a fresh W−b opened every flush) against the
// fixed weight-mask protocol (F = W−b opened once at session setup).
type maskreuseResult struct {
	K       int `json:"k"`
	Flushes int `json:"flushes"`
	// PerFlushOnlineMSPerQuery / PerFlushOnlineBytesPerQuery are the
	// baseline: every flush re-opens the masked weights.
	PerFlushOnlineMSPerQuery    float64 `json:"per_flush_online_ms_per_query"`
	PerFlushOnlineBytesPerQuery int64   `json:"per_flush_online_bytes_per_query"`
	// FixedOnlineMSPerQuery / FixedOnlineBytesPerQuery open only the
	// activation side per flush, against the session-pinned weight mask.
	FixedOnlineMSPerQuery    float64 `json:"fixed_online_ms_per_query"`
	FixedOnlineBytesPerQuery int64   `json:"fixed_online_bytes_per_query"`
	// Setup bytes carry the one-time model sharing, plus — in fixed mode —
	// the single W−b opening amortized across every later flush.
	PerFlushSetupBytes int64 `json:"per_flush_setup_bytes"`
	FixedSetupBytes    int64 `json:"fixed_setup_bytes"`
	// OnlineBytesReduction is 1 − fixed/per-flush online bytes.
	OnlineBytesReduction float64 `json:"online_bytes_reduction"`
	Reps                 int     `json:"reps"`
}

// maskreuseReport is the BENCH_maskreuse.json schema: the perf-trajectory
// file recording what fixed weight-masks buy on multi-flush sessions.
type maskreuseReport struct {
	GeneratedUnix int64             `json:"generated_unix"`
	Workers       int               `json:"workers"`
	Backbone      string            `json:"backbone"`
	Results       []maskreuseResult `json:"results"`
	// OnlineBytesReduction maps "kN" to the per-flush→fixed online byte
	// reduction at batch size N.
	OnlineBytesReduction map[string]float64 `json:"online_bytes_reduction"`
}

// mrBound is the plaintext sanity bound for well-conditioned demo rows;
// a mask-cache bug yields wrapped, astronomically large logits that can
// never hide under it.
const mrBound = 0.05

// mrSaneLogit excludes dataset rows the tiny demo backbone diverges on:
// its X² activations blow some synthetic rows up to plaintext logits
// around 1e24, which no fixed-point pipeline can represent — comparing
// those rows would measure float range, not the masking protocol.
const mrSaneLogit = 10.0

// maskreuseSession drives one multi-flush session pair over an in-process
// pipe and reports the setup traffic, the online traffic and wall-clock of
// the flush sequence, and the last flush's logits for a sanity check. A
// start handshake keeps party 0 out of its serve loop until setup bytes
// are sampled (its side of the shape exchange sends eagerly).
func maskreuseSession(m *models.Model, x *tensor.Tensor, flushes int, seed uint64, fixedMasks bool) (setupBytes, onlineBytes int64, onlineSec float64, logits []float64, err error) {
	m0, m1 := transport.Pipe()
	c0, c1 := obs.InstrumentConn(m0, nil), obs.InstrumentConn(m1, nil)
	codec := fixed.Default64()
	opts := pi.SessionOptions{FixedMasks: fixedMasks}
	var wg sync.WaitGroup
	var serveErr error
	setupDone := make(chan struct{})
	goServe := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, c0, seed, seed*31+1, codec)
		sess0, err := pi.NewSessionOpts(p0, m, []int{0, 3, benchDemoHW, benchDemoHW}, opts)
		if err != nil {
			serveErr = err
			close(setupDone)
			return
		}
		close(setupDone)
		<-goServe
		serveErr = sess0.Serve()
	}()
	p1 := mpc.NewParty(1, c1, seed, seed*31+2, codec)
	sess1, err := pi.NewSessionOpts(p1, m, nil, opts)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	<-setupDone
	if serveErr != nil {
		return 0, 0, 0, nil, serveErr
	}
	total := func() int64 { return c0.Totals().SentBytes + c1.Totals().SentBytes }
	setupBytes = total()
	close(goServe)
	start := time.Now()
	for f := 0; f < flushes; f++ {
		if logits, err = sess1.Query(x); err != nil {
			return 0, 0, 0, nil, fmt.Errorf("flush %d: %w", f, err)
		}
	}
	onlineSec = time.Since(start).Seconds()
	if err := sess1.Close(); err != nil {
		return 0, 0, 0, nil, err
	}
	wg.Wait()
	if serveErr != nil {
		return 0, 0, 0, nil, serveErr
	}
	return setupBytes, total() - setupBytes, onlineSec, logits, nil
}

// maskreuseBench measures the fixed weight-mask amortization: for K=1, 4,
// 16 it serves a 4-flush session pair with per-flush masking and with the
// session-pinned weight mask, sanity-checks the logits against plaintext,
// and records online ms/query, online bytes/query, and the setup-side
// W−b opening. Bytes are deterministic; times take the fastest of several
// repetitions so a noisy runner cannot manufacture a phantom regression.
func maskreuseBench(jsonDir string) error {
	m, d, _, err := benchDemoModel(jsonDir)
	if err != nil {
		return err
	}

	const flushes = 4
	rep := maskreuseReport{
		GeneratedUnix:        time.Now().Unix(),
		Workers:              kernel.Workers(),
		Backbone:             benchBackbone,
		OnlineBytesReduction: map[string]float64{},
	}
	// Restrict the query pool to rows the plaintext model keeps in the
	// fixed-point representable range (see mrSaneLogit).
	var sane []int
	for i := 0; i < d.Len(); i++ {
		xi, _ := d.Batch([]int{i})
		ok := true
		for _, v := range m.Net.Forward(xi, false).Data {
			if math.Abs(v) > mrSaneLogit {
				ok = false
				break
			}
		}
		if ok {
			sane = append(sane, i)
		}
	}
	if len(sane) == 0 {
		return fmt.Errorf("maskreuse: demo backbone diverges on every dataset row")
	}
	fmt.Printf("Fixed weight-mask reuse, %d flushes/session (workers=%d, %s):\n", flushes, kernel.Workers(), benchBackbone)
	fmt.Printf("  %4s %20s %20s %16s %16s %10s\n",
		"K", "per-flush ms/query", "fixed ms/query", "per-flush B/q", "fixed B/q", "B saved")
	for _, k := range []int{1, 4, 16} {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = sane[i%len(sane)]
		}
		x, _ := d.Batch(idx)
		plain := m.Net.Forward(x, false).Data

		reps := 2 + 16/k
		best := maskreuseResult{K: k, Flushes: flushes, Reps: reps}
		for r := 0; r < reps; r++ {
			seed := uint64(29 + 13*r)
			bSetup, bOnline, bSec, bLogits, err := maskreuseSession(m, x, flushes, seed, false)
			if err != nil {
				return fmt.Errorf("maskreuse K=%d per-flush: %w", k, err)
			}
			fSetup, fOnline, fSec, fLogits, err := maskreuseSession(m, x, flushes, seed, true)
			if err != nil {
				return fmt.Errorf("maskreuse K=%d fixed: %w", k, err)
			}
			// Both schemes must still compute the model: a mask-cache bug
			// corrupts every query row's logits, so require a majority of
			// rows within the plaintext bound. (Majority, not all: SecureML
			// truncation can wrap an individual row with small probability,
			// and a multi-flush bench makes many draws.)
			classes := len(plain) / k
			okB, okF := 0, 0
			for row := 0; row < k; row++ {
				rb, rf := true, true
				for c := 0; c < classes; c++ {
					i := row*classes + c
					if math.Abs(bLogits[i]-plain[i]) > mrBound {
						rb = false
					}
					if math.Abs(fLogits[i]-plain[i]) > mrBound {
						rf = false
					}
				}
				if rb {
					okB++
				}
				if rf {
					okF++
				}
			}
			if 2*okB < k+1 || 2*okF < k+1 {
				return fmt.Errorf("maskreuse K=%d rep %d: only %d/%d per-flush and %d/%d fixed query rows match plaintext", k, r, okB, k, okF, k)
			}
			bMS := bSec * 1e3 / float64(flushes*k)
			fMS := fSec * 1e3 / float64(flushes*k)
			if best.PerFlushOnlineMSPerQuery == 0 || bMS < best.PerFlushOnlineMSPerQuery {
				best.PerFlushOnlineMSPerQuery = bMS
			}
			if best.FixedOnlineMSPerQuery == 0 || fMS < best.FixedOnlineMSPerQuery {
				best.FixedOnlineMSPerQuery = fMS
			}
			best.PerFlushOnlineBytesPerQuery = bOnline / int64(flushes*k)
			best.FixedOnlineBytesPerQuery = fOnline / int64(flushes*k)
			best.PerFlushSetupBytes = bSetup
			best.FixedSetupBytes = fSetup
			best.OnlineBytesReduction = 1 - float64(fOnline)/float64(bOnline)
		}
		rep.Results = append(rep.Results, best)
		rep.OnlineBytesReduction[fmt.Sprintf("k%d", k)] = best.OnlineBytesReduction
		fmt.Printf("  %4d %20.3f %20.3f %16d %16d %9.1f%%\n",
			k, best.PerFlushOnlineMSPerQuery, best.FixedOnlineMSPerQuery,
			best.PerFlushOnlineBytesPerQuery, best.FixedOnlineBytesPerQuery,
			100*best.OnlineBytesReduction)
	}

	if jsonDir != "" {
		path := filepath.Join(jsonDir, "BENCH_maskreuse.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	return nil
}
