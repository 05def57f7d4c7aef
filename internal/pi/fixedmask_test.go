package pi

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

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

// Suite for the fixed weight-mask deployment path: cross-source
// equivalence (store-fed fixed ≡ live fixed, bit-for-bit) over the
// program zoo and across kernel settings, per-flush wire-byte accounting
// against the per-flush-mask baseline, and the fallback budget-telemetry
// regression (a live-dealer fallback must reset RemainingBudget to -1 on
// both parties, not leave a stale store stamp).

// inferLogitsFixed is inferLogits with the fixed weight-mask protocol on.
func inferLogitsFixed(t *testing.T, prog *Program, x *tensor.Tensor, seed uint64, sources [2]mpc.CorrelationSource) []float64 {
	t.Helper()
	var mu sync.Mutex
	outs := [2][]float64{}
	err := mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
		eng := NewEngine(prog)
		eng.SetFixedMasks(true)
		if err := eng.Setup(p); err != nil {
			return err
		}
		if src := sources[p.ID]; src != nil {
			p.Source = src
		}
		var enc []uint64
		if p.ID == 1 {
			enc = p.EncodeTensor(x.Data)
		}
		xs, err := p.ShareInput(1, enc, x.Shape...)
		if err != nil {
			return err
		}
		out, err := eng.Infer(xs)
		if err != nil {
			return err
		}
		vals, err := p.Reveal(out)
		if err != nil {
			return err
		}
		mu.Lock()
		outs[p.ID] = p.DecodeTensor(vals)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("parties reconstructed different logits at %d", i)
		}
	}
	return outs[0]
}

// TestFixedMaskCrossSourceEquivalence extends the headline equivalence
// suite to the fixed-mask path: over the program zoo at N=1 and N=4, a
// store-fed fixed-mask run is bit-identical to the live-dealer fixed-mask
// run, and both agree with the per-flush-mask path within the fixed-point
// bound (exact logit equality across the two schemes is not expected:
// SecureML local truncation is share-value-dependent, and the schemes
// produce different share values — they agree to the last ULP or so, far
// inside the plaintext bound).
func TestFixedMaskCrossSourceEquivalence(t *testing.T) {
	const bound = 0.05
	for vi, v := range netVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			r := rng.New(uint64(7000 + vi))
			net := v.build(r, v.hw, v.inC, 3)
			warmNet(net, r, v.hw, v.inC)
			prog, err := Compile(net)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 4} {
				seed := uint64(80 + 10*vi + n)
				x := tensor.New(n, v.inC, v.hw, v.hw).RandNorm(r, 0.5)

				liveFixed := inferLogitsFixed(t, prog, x, seed, [2]mpc.CorrelationSource{})

				tape, err := TraceTapeMode(prog, x.Shape, true)
				if err != nil {
					t.Fatal(err)
				}
				s0, s1, err := corr.BuildPair(tape, rng.New(seed), seed)
				if err != nil {
					t.Fatal(err)
				}
				stored := inferLogitsFixed(t, prog, x, seed, [2]mpc.CorrelationSource{s0, s1})
				for i := range liveFixed {
					if stored[i] != liveFixed[i] {
						t.Fatalf("N=%d: store-fed fixed-mask logit %d differs from live fixed-mask path: %v vs %v",
							n, i, stored[i], liveFixed[i])
					}
				}
				if s0.Remaining() != 0 || s1.Remaining() != 0 {
					t.Fatalf("N=%d: fixed stores not fully consumed: %d/%d left", n, s0.Remaining(), s1.Remaining())
				}

				perFlush := inferLogits(t, prog, x, seed, [2]mpc.CorrelationSource{})
				if d := maxAbsDiff(liveFixed, perFlush); d > 0.01 {
					t.Fatalf("N=%d: fixed vs per-flush scheme diff %v", n, d)
				}
				plain := net.Forward(x, false).Data
				if d := maxAbsDiff(liveFixed, plain); d > bound {
					t.Fatalf("N=%d: fixed-mask vs plaintext diff %v", n, d)
				}
			}
		})
	}
}

// TestFixedTapeDeterminismAcrossKernelSettings pins the fixed-mask tape
// and store material as worker-count- and kernel-path-independent: a
// fixed store recorded and serialized under one setting replays under
// another, bit-identical to the live fixed run.
func TestFixedTapeDeterminismAcrossKernelSettings(t *testing.T) {
	v := netVariants[1] // relu-maxpool-residual
	r := rng.New(48)
	net := v.build(r, v.hw, v.inC, 3)
	warmNet(net, r, v.hw, v.inC)
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, v.inC, v.hw, v.hw).RandNorm(r, 0.5)

	var refTape corr.Tape
	for _, s := range kernelSettings() {
		s := s
		withKernelSetting(s, func() {
			tape, err := TraceTapeMode(prog, x.Shape, true)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if refTape == nil {
				refTape = tape
				return
			}
			if !tape.Equal(refTape) {
				t.Fatalf("%s: fixed demand tape diverged (%d vs %d demands)", s.name, len(tape), len(refTape))
			}
		})
	}

	const seed = 49
	dir := t.TempDir()
	withKernelSetting(kernelSettings()[2], func() { // workers=1/naive
		s0, s1, err := corr.BuildPair(refTape, rng.New(seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := s0.WriteFile(filepath.Join(dir, corr.FileName(0, x.Shape))); err != nil {
			t.Fatal(err)
		}
		if err := s1.WriteFile(filepath.Join(dir, corr.FileName(1, x.Shape))); err != nil {
			t.Fatal(err)
		}
	})
	withKernelSetting(kernelSettings()[1], func() { // workers=many/lowered
		live := inferLogitsFixed(t, prog, x, seed, [2]mpc.CorrelationSource{})
		s0, err := corr.ReadFile(filepath.Join(dir, corr.FileName(0, x.Shape)))
		if err != nil {
			t.Fatal(err)
		}
		s1, err := corr.ReadFile(filepath.Join(dir, corr.FileName(1, x.Shape)))
		if err != nil {
			t.Fatal(err)
		}
		stored := inferLogitsFixed(t, prog, x, seed, [2]mpc.CorrelationSource{s0, s1})
		for i := range live {
			if stored[i] != live[i] {
				t.Fatalf("replayed fixed logit %d differs: %v vs %v", i, stored[i], live[i])
			}
		}
	})
}

// weightSideWords sums the weight-operand element counts of a per-flush
// demand tape — the words the per-flush scheme opens every flush and the
// fixed scheme opens exactly once at setup.
func weightSideWords(tape corr.Tape) int {
	words := 0
	for _, d := range tape {
		switch d.Kind {
		case corr.KindMatMul:
			words += d.K * d.P
		case corr.KindConv:
			words += d.Conv.KLen()
		}
	}
	return words
}

// TestFixedMaskBytesAmortized is the bytes-counting satellite: over a
// multi-flush session pair, each fixed-mask flush moves exactly
// 8·(weight words) fewer bytes per party than the per-flush baseline
// (same frames, weight payload gone), the saving holds on every flush —
// the weight side is paid once per session, in setup — and setup is
// correspondingly heavier by the one-time F = W−b opening.
func TestFixedMaskBytesAmortized(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := TraceTapeMode(prog, []int{1, 3, 16, 16}, false)
	if err != nil {
		t.Fatal(err)
	}
	wWords := weightSideWords(tape)
	if wWords == 0 {
		t.Fatal("model has no linear-layer weight words; bytes test is vacuous")
	}
	q := query(d, 11)
	const flushes = 3

	runSession := func(fixedMasks bool) (setupBytes int64, flushBytes []int64) {
		t.Helper()
		m0, m1 := transport.Pipe()
		c0, c1 := obs.InstrumentConn(m0, nil), obs.InstrumentConn(m1, nil)
		codec := fixed.Default64()
		opts := SessionOptions{FixedMasks: fixedMasks}
		var wg sync.WaitGroup
		var serveErr error
		setupDone := make(chan struct{})
		// flushStart/flushDone bracket each flush so the byte snapshots see
		// both parties quiescent: party 0 must not enter the next ServeOne
		// early (its side of the shape exchange sends eagerly) and must
		// have finished the current one (all sends counted) when sampled.
		flushStart := make(chan struct{})
		flushDone := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			p0 := mpc.NewParty(0, c0, 91, 8001, codec)
			sess0, err := NewSessionOpts(p0, m, []int{0, 3, 16, 16}, opts)
			if err != nil {
				serveErr = err
				close(setupDone)
				return
			}
			close(setupDone)
			for f := 0; f < flushes; f++ {
				<-flushStart
				if _, _, err := sess0.ServeOne(); err != nil {
					serveErr = err
					return
				}
				flushDone <- struct{}{}
			}
		}()
		p1 := mpc.NewParty(1, c1, 91, 8002, codec)
		sess1, err := NewSessionOpts(p1, m, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		<-setupDone
		if serveErr != nil {
			t.Fatal(serveErr)
		}
		total := func() int64 { return c0.Totals().SentBytes + c1.Totals().SentBytes }
		setupBytes = total()
		last := setupBytes
		for f := 0; f < flushes; f++ {
			flushStart <- struct{}{}
			if _, err := sess1.Query(q); err != nil {
				t.Fatalf("flush %d: %v", f, err)
			}
			<-flushDone
			now := total()
			flushBytes = append(flushBytes, now-last)
			last = now
		}
		wg.Wait()
		if serveErr != nil {
			t.Fatal(serveErr)
		}
		return setupBytes, flushBytes
	}

	baseSetup, baseFlush := runSession(false)
	fixedSetup, fixedFlush := runSession(true)

	// Every fixed flush saves exactly the weight payload, on both parties.
	want := int64(2 * 8 * wWords)
	for f := 0; f < flushes; f++ {
		saved := baseFlush[f] - fixedFlush[f]
		if saved != want {
			t.Errorf("flush %d: fixed mode saved %d bytes, want exactly %d (2 parties x 8 x %d weight words)",
				f, saved, want, wWords)
		}
	}
	// Steady state: the saving is per-flush, so flush bytes are constant
	// within each mode (nothing weight-sized sneaks back in later flushes).
	for f := 1; f < flushes; f++ {
		if fixedFlush[f] != fixedFlush[0] {
			t.Errorf("fixed flush %d moved %d bytes, flush 0 moved %d", f, fixedFlush[f], fixedFlush[0])
		}
	}
	// The weight side moved into setup: the one-time F opening makes fixed
	// setup strictly heavier, by at least the opened weight payload.
	if fixedSetup-baseSetup < want {
		t.Errorf("fixed setup %d vs base %d: F = W-b opening (>= %d bytes) missing from setup",
			fixedSetup, baseSetup, want)
	}
	// And the session-total for multi-flush serving is strictly cheaper:
	// the acceptance criterion's "strictly below the baseline" per query.
	baseTotal, fixedTotal := baseSetup, fixedSetup
	for f := 0; f < flushes; f++ {
		baseTotal += baseFlush[f]
		fixedTotal += fixedFlush[f]
	}
	if fixedTotal >= baseTotal {
		t.Errorf("fixed session total %d >= per-flush total %d over %d flushes", fixedTotal, baseTotal, flushes)
	}
}

// TestRunBatchFixedMaskEquivalence repeats the store/live invariant
// through the high-level RunBatchOpt API in fixed-mask mode and pins the
// bookkeeping: identical logits and identical online bytes between the
// preprocessed and live fixed runs.
func TestRunBatchFixedMaskEquivalence(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	queries := []*tensor.Tensor{query(d, 1), query(d, 2)}
	hw := hwmodel.DefaultConfig()

	live, err := RunBatchOpt(m, hw, queries, 93, RunOptions{FixedMasks: true})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := RunBatchOpt(m, hw, queries, 93, RunOptions{FixedMasks: true, Preprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Output {
		if pre.Output[i] != live.Output[i] {
			t.Fatalf("fixed preprocessed logit %d differs from fixed live path: %v vs %v", i, pre.Output[i], live.Output[i])
		}
	}
	if pre.OnlineBytes != live.OnlineBytes {
		t.Fatalf("fixed online bytes differ: %d vs %d", pre.OnlineBytes, live.OnlineBytes)
	}
	// Against the per-flush baseline the online phase is strictly lighter.
	base, err := RunBatchOpt(m, hw, queries, 93, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if live.OnlineBytes >= base.OnlineBytes {
		t.Fatalf("fixed online bytes %d >= per-flush %d", live.OnlineBytes, base.OnlineBytes)
	}
	if live.MaxAbsErr > 0.08 || pre.MaxAbsErr > 0.08 {
		t.Fatalf("fixed-mask accuracy: live %v preprocessed %v", live.MaxAbsErr, pre.MaxAbsErr)
	}
}

// TestFallbackBudgetRegression pins the satellite bugfix in
// Session.confirmSource: when a flush degrades to the live dealer because
// one party's provider misses the geometry, BOTH parties' RemainingBudget
// must read -1 (unknown/not-serving-from-store) — the old code left the
// last stamped store budget standing, on the missing side from the
// previous flush and on the provisioned side from the very stamp of the
// store the flush then abandoned — and a later store-fed flush must
// re-stamp a fresh non-negative reading.
func TestFallbackBudgetRegression(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	shapeA := []int{1, 3, 16, 16}
	shapeB := []int{2, 3, 16, 16}
	dirFull := t.TempDir()
	if _, err := writeStores(prog, 95, [][]int{shapeA, shapeB}, 2, dirFull); err != nil {
		t.Fatal(err)
	}
	// Party 0's directory holds only its shape-A store: shape B resolves on
	// party 1 but misses on party 0, forcing the degraded flush.
	dir0 := t.TempDir()
	nameA := corr.FileName(0, shapeA)
	bytesA, err := os.ReadFile(filepath.Join(dirFull, nameA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir0, nameA), bytesA, 0o644); err != nil {
		t.Fatal(err)
	}

	c0, c1 := transport.Pipe()
	codec := fixed.Default64()
	const flushCount = 3
	var budgets0 [flushCount]int
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, c0, 95, 9001, codec)
		sess0, err := NewSessionOpts(p0, m, []int{0, 3, 16, 16}, SessionOptions{})
		if err != nil {
			serveErr = err
			return
		}
		sess0.UsePreprocessed(NewDirProvider(dir0))
		for f := 0; f < flushCount; f++ {
			if _, _, err := sess0.ServeOne(); err != nil {
				serveErr = err
				return
			}
			budgets0[f] = sess0.RemainingBudget()
		}
	}()
	p1 := mpc.NewParty(1, c1, 95, 9002, codec)
	sess1, err := NewSessionOpts(p1, m, nil, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess1.UsePreprocessed(NewDirProvider(dirFull))
	qA, qB := query(d, 3), func() *tensor.Tensor { x, _ := d.Batch([]int{4, 5}); return x }()
	var budgets1 [flushCount]int

	// Flush 1: shape A, store-fed on both — budget stamped from the store.
	if _, err := sess1.Query(qA); err != nil {
		t.Fatal(err)
	}
	budgets1[0] = sess1.RemainingBudget()
	// Flush 2: shape B — party 0 misses, both degrade to the live dealer.
	if _, err := sess1.Query(qB); err != nil {
		t.Fatal(err)
	}
	budgets1[1] = sess1.RemainingBudget()
	// Flush 3: shape A again — store recovery re-stamps the budget.
	if _, err := sess1.Query(qA); err != nil {
		t.Fatal(err)
	}
	budgets1[2] = sess1.RemainingBudget()
	wg.Wait()
	if serveErr != nil {
		t.Fatal(serveErr)
	}

	for party, budgets := range [2][flushCount]int{budgets0, budgets1} {
		if budgets[0] <= 0 {
			t.Errorf("party %d: store-fed flush must stamp a positive budget, got %d", party, budgets[0])
		}
		// The regression: the fallback flush must reset to -1. Party 1 is
		// the sharper case — its announce half stamped shape B's store
		// before the degrade decision, so without the reset it would report
		// that abandoned store's budget as live telemetry.
		if budgets[1] != -1 {
			t.Errorf("party %d: fallback flush left RemainingBudget=%d, want -1 (stale store stamp)", party, budgets[1])
		}
		if budgets[2] < 0 {
			t.Errorf("party %d: store recovery must re-stamp a non-negative budget, got %d", party, budgets[2])
		}
		if budgets[2] >= budgets[0] {
			t.Errorf("party %d: recovered budget %d should be below the first stamp %d (one flush consumed)",
				party, budgets[2], budgets[0])
		}
	}
	if sess1.Fallbacks() != 1 {
		t.Errorf("party 1 fallbacks = %d, want 1", sess1.Fallbacks())
	}
}
