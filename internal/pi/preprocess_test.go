package pi

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// This file is the offline/online split's protocol-level suite:
//
//   - cross-source equivalence: a store-fed online phase is bit-identical
//     to the live-dealer path (and within fixed-point bounds of plaintext)
//     over the program zoo, at N=1 and N=4;
//   - demand-tape determinism: the traced correlation sequence is a pure
//     function of program and geometry — identical across kernel worker
//     counts and naive/lowered kernel paths — and a store recorded under
//     one setting replays under another;
//   - failure behavior: exhaustion and geometry mismatches surface as
//     descriptive errors from both parties instead of a desync.

// writeStores provisions both parties' store files for each geometry
// the way the serving path does: trace the flush's demand tape, then
// WriteStorePair it off the geometry's stream.
func writeStores(prog *Program, dealerSeed uint64, shapes [][]int, flushes int, dir string) ([]string, error) {
	var paths []string
	for _, shape := range shapes {
		tape, err := TraceTape(prog, shape)
		if err != nil {
			return nil, err
		}
		ps, err := WriteStorePair(tape, dealerSeed, shape, flushes, dir)
		if err != nil {
			return nil, err
		}
		paths = append(paths, ps...)
	}
	return paths, nil
}

// inferLogits runs one packed evaluation with an optional per-party
// correlation source and returns party 0's reconstructed logits after
// asserting both parties agree bit-for-bit.
func inferLogits(t *testing.T, prog *Program, x *tensor.Tensor, seed uint64, sources [2]mpc.CorrelationSource) []float64 {
	t.Helper()
	return inferFlushes(t, prog, []*tensor.Tensor{x}, seed, sources)[0]
}

// inferFlushes is inferLogits over a session: one Setup, then one packed
// evaluation per input in order, all on the same F = W−b.
func inferFlushes(t *testing.T, prog *Program, xs []*tensor.Tensor, seed uint64, sources [2]mpc.CorrelationSource) [][]float64 {
	t.Helper()
	var mu sync.Mutex
	outs := [2][][]float64{}
	err := mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
		eng := NewEngine(prog)
		if err := eng.Setup(p); err != nil {
			return err
		}
		// Setup consumes no correlations (party 0 derives the masks of
		// F = W−b from the dealer seed), so installing the store after it is
		// equivalent to installing it before.
		if src := sources[p.ID]; src != nil {
			p.Source = src
		}
		for _, x := range xs {
			var enc []uint64
			if p.ID == 1 {
				enc = p.EncodeTensor(x.Data)
			}
			in, err := p.ShareInput(1, enc, x.Shape...)
			if err != nil {
				return err
			}
			out, err := eng.Infer(in)
			if err != nil {
				return err
			}
			vals, err := p.Reveal(out)
			if err != nil {
				return err
			}
			mu.Lock()
			outs[p.ID] = append(outs[p.ID], p.DecodeTensor(vals))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for f := range outs[0] {
		for i := range outs[0][f] {
			if outs[0][f][i] != outs[1][f][i] {
				t.Fatalf("flush %d: parties reconstructed different logits at %d", f, i)
			}
		}
	}
	return outs[0]
}

// TestCrossSourceEquivalenceVariants is the headline satellite: for every
// program shape in the zoo and batch sizes 1 and 4, the store-fed online
// phase reproduces the live-dealer outputs bit-for-bit, consumes the whole
// store, and matches plaintext within the fixed-point bound.
func TestCrossSourceEquivalenceVariants(t *testing.T) {
	const bound = 0.05
	for vi, v := range netVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			r := rng.New(uint64(5000 + vi))
			net := v.build(r, v.hw, v.inC, 3)
			warmNet(net, r, v.hw, v.inC)
			prog, err := Compile(net)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 4} {
				seed := uint64(60 + 10*vi + n)
				x := tensor.New(n, v.inC, v.hw, v.hw).RandNorm(r, 0.5)

				live := inferLogits(t, prog, x, seed, [2]mpc.CorrelationSource{})

				tape, err := TraceTape(prog, x.Shape)
				if err != nil {
					t.Fatal(err)
				}
				s0, s1, err := corr.BuildPair(tape, rng.New(seed), seed)
				if err != nil {
					t.Fatal(err)
				}
				stored := inferLogits(t, prog, x, seed, [2]mpc.CorrelationSource{s0, s1})

				if len(stored) != len(live) {
					t.Fatalf("N=%d: output lengths %d vs %d", n, len(stored), len(live))
				}
				for i := range live {
					if stored[i] != live[i] {
						t.Fatalf("N=%d: store-fed logit %d differs from live-dealer path: %v vs %v",
							n, i, stored[i], live[i])
					}
				}
				plain := net.Forward(x, false).Data
				if d := MaxAbsErr(stored, plain); d > bound {
					t.Fatalf("N=%d: store-fed vs plaintext diff %v", n, d)
				}
				if s0.Remaining() != 0 || s1.Remaining() != 0 {
					t.Fatalf("N=%d: stores not fully consumed: %d/%d left", n, s0.Remaining(), s1.Remaining())
				}
			}
		})
	}
}

// TestRunBatchPreprocessedEquivalence repeats the invariant through the
// batched Run driver on a trained backbone and checks the timing
// split bookkeeping, the online bytes and the accuracy.
func TestRunBatchPreprocessedEquivalence(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	queries := []*tensor.Tensor{query(d, 1), query(d, 2), query(d, 3)}

	live, err := Run(m, queries, 91, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Run(m, queries, 91, RunOptions{Preprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if pre.OfflineSeconds <= 0 {
		t.Fatalf("preprocessed run bookkeeping: OfflineSeconds=%v", pre.OfflineSeconds)
	}
	if live.OfflineSeconds != 0 {
		t.Fatalf("live run bookkeeping: OfflineSeconds=%v", live.OfflineSeconds)
	}
	if len(pre.Output) != len(live.Output) {
		t.Fatalf("output lengths %d vs %d", len(pre.Output), len(live.Output))
	}
	for i := range live.Output {
		if pre.Output[i] != live.Output[i] {
			t.Fatalf("preprocessed logit %d differs from live path: %v vs %v", i, pre.Output[i], live.Output[i])
		}
	}
	// The store-fed online phase moves the same bytes: amortized
	// communication must be identical.
	if pre.OnlineBytes != live.OnlineBytes {
		t.Fatalf("online bytes differ: %d vs %d", pre.OnlineBytes, live.OnlineBytes)
	}
	if live.MaxAbsErr > 0.08 || pre.MaxAbsErr > 0.08 {
		t.Fatalf("accuracy: live %v preprocessed %v", live.MaxAbsErr, pre.MaxAbsErr)
	}
}

// TestTapeDeterminismAcrossKernelSettings pins the demand-tape invariant:
// the traced sequence is identical across worker counts and kernel paths,
// and a store recorded (and serialized) under one setting replays under
// another with bit-identical protocol outputs.
func TestTapeDeterminismAcrossKernelSettings(t *testing.T) {
	v := netVariants[1] // relu-maxpool-residual: comparison-heavy demand
	r := rng.New(41)
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
			tape, err := TraceTape(prog, x.Shape)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if refTape == nil {
				refTape = tape
				return
			}
			if !tape.Equal(refTape) {
				t.Fatalf("%s: demand tape diverged (%d vs %d demands)", s.name, len(tape), len(refTape))
			}
		})
	}

	// Record under workers=1/naive, replay under many-workers/lowered:
	// the replayed run must be bit-identical to a live run (store material
	// is worker-count- and kernel-path-independent).
	const seed = 42
	dir := t.TempDir()
	recording := kernelSettings()[2] // workers=1/naive
	withKernelSetting(recording, func() {
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
	replay := kernelSettings()[1] // workers=many/lowered
	withKernelSetting(replay, func() {
		live := inferLogits(t, prog, x, seed, [2]mpc.CorrelationSource{})
		s0, err := corr.ReadFile(filepath.Join(dir, corr.FileName(0, x.Shape)))
		if err != nil {
			t.Fatal(err)
		}
		s1, err := corr.ReadFile(filepath.Join(dir, corr.FileName(1, x.Shape)))
		if err != nil {
			t.Fatal(err)
		}
		stored := inferLogits(t, prog, x, seed, [2]mpc.CorrelationSource{s0, s1})
		for i := range live {
			if stored[i] != live[i] {
				t.Fatalf("replayed logit %d differs: %v vs %v", i, stored[i], live[i])
			}
		}
	})
}

// TestStoreErrorsSurfaceSymmetrically pins the satellite fix: a store
// provisioned for the wrong geometry, or one that runs dry mid-program,
// must fail both parties with a descriptive error naming the correlation
// kind and shapes — before any protocol bytes flow, so neither party
// hangs or desyncs.
func TestStoreErrorsSurfaceSymmetrically(t *testing.T) {
	v := netVariants[0] // plain-x2-gap
	r := rng.New(43)
	net := v.build(r, v.hw, v.inC, 3)
	warmNet(net, r, v.hw, v.inC)
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	shape1 := []int{1, v.inC, v.hw, v.hw}
	shape2 := []int{2, v.inC, v.hw, v.hw}
	tape1, err := TraceTape(prog, shape1)
	if err != nil {
		t.Fatal(err)
	}

	runWith := func(stores [2]*corr.Store, x *tensor.Tensor) [2]error {
		var mu sync.Mutex
		var errs [2]error
		_ = mpc.RunProtocol(7, fixed.Default64(), func(p *mpc.Party) error {
			p.Source = stores[p.ID]
			eng := NewEngine(prog)
			if err := eng.Setup(p); err != nil {
				return err
			}
			var enc []uint64
			if p.ID == 1 {
				enc = p.EncodeTensor(x.Data)
			}
			xs, err := p.ShareInput(1, enc, x.Shape...)
			if err != nil {
				return err
			}
			_, err = eng.Infer(xs)
			mu.Lock()
			errs[p.ID] = err
			mu.Unlock()
			return err
		})
		return errs
	}

	t.Run("geometry-mismatch", func(t *testing.T) {
		// Store preprocessed for N=1, online phase runs N=2.
		s0, s1, err := corr.BuildPair(tape1, rng.New(7), 7)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(shape2...).RandNorm(rng.New(8), 0.5)
		errs := runWith([2]*corr.Store{s0, s1}, x)
		for party, e := range errs {
			if e == nil {
				t.Fatalf("party %d: wrong-geometry store must error", party)
			}
			if !strings.Contains(e.Error(), "geometry mismatch") ||
				!strings.Contains(e.Error(), "store recorded") {
				t.Fatalf("party %d: error must describe recorded vs requested demand, got: %v", party, e)
			}
		}
	})

	t.Run("exhaustion", func(t *testing.T) {
		// Store holding one demand too few: the program's last correlation
		// request must fail with the exhaustion error on both parties.
		s0, s1, err := corr.BuildPair(tape1[:len(tape1)-1], rng.New(7), 7)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(shape1...).RandNorm(rng.New(9), 0.5)
		errs := runWith([2]*corr.Store{s0, s1}, x)
		for party, e := range errs {
			if e == nil {
				t.Fatalf("party %d: exhausted store must error", party)
			}
			if !strings.Contains(e.Error(), "exhausted") {
				t.Fatalf("party %d: want exhaustion error, got: %v", party, e)
			}
		}
	})
}

// TestPerFlushStoreFailsWithRegenerateHint pins what a store written for
// per-flush weight masks does to a session: its tape records conv and
// matmul triples where every flush now takes the FixedB pairs, so both
// parties fail at the first linear layer — before any opening — with the
// hint to regenerate the store, and neither hangs.
func TestPerFlushStoreFailsWithRegenerateHint(t *testing.T) {
	m := demoModel(t)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	shape := []int{1, 3, 8, 8}
	tape, err := TraceTape(prog, shape)
	if err != nil {
		t.Fatal(err)
	}
	// The tape a per-flush session demanded: the same demands, with Beaver
	// triples where the linear ops now take FixedB pairs, fresh or
	// shared-mask.
	perFlush := make(corr.Tape, len(tape))
	for i, d := range tape {
		switch d.Kind {
		case corr.KindConvFixedB:
			d.Kind, d.Mask, d.Shared = corr.KindConv, 0, false
		case corr.KindMatMulFixedB:
			d.Kind, d.Mask, d.Shared = corr.KindMatMul, 0, false
		}
		perFlush[i] = d
	}
	if perFlush[0].Kind != corr.KindConv {
		t.Fatalf("demo program's first demand is %s, want its first conv", perFlush[0])
	}
	dir := t.TempDir()
	if _, err := WriteStorePair(perFlush, 5, shape, 1, dir); err != nil {
		t.Fatal(err)
	}
	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	errs := make(chan error, 2)
	go func() {
		p0 := mpc.NewParty(0, c0, 5, 6, fixed.Default64())
		sess, err := NewSessionOpts(p0, m, []int{0, 3, 8, 8}, SessionOptions{})
		if err == nil {
			sess.UsePreprocessed(NewDirProvider(dir))
			_, _, err = sess.ServeOne()
		}
		errs <- err
	}()
	go func() {
		p1 := mpc.NewParty(1, c1, 5, 7, fixed.Default64())
		sess, err := NewSessionOpts(p1, m, nil, SessionOptions{})
		if err == nil {
			sess.UsePreprocessed(NewDirProvider(dir))
			_, err = sess.Query(tensor.New(shape...))
		}
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "kind mismatch at correlation #1:") ||
				!strings.Contains(err.Error(), "conv-fixedb") || !strings.Contains(err.Error(), "regenerate") {
				t.Errorf("per-flush store: want the kind-mismatch regenerate hint at the first conv, got: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("per-flush store: a party hung instead of failing")
		}
	}
}

// TestDirProviderPreload pins the eager-load path: the party's store
// files are deserialized up front (so no flush pays it online) while the
// peer's halves in a shared directory are left untouched, a missing
// directory stays a soft miss, a wrong-party file behind the party's name
// is rejected at preload time, and a corrupt file fails loudly at preload
// time instead of mid-deployment.
func TestDirProviderPreload(t *testing.T) {
	m, _ := smallModel(t, "resnet18", models.ActX2)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	shapes := [][]int{{1, 3, 16, 16}, {2, 3, 16, 16}}
	if _, err := writeStores(prog, 31, shapes, 1, dir); err != nil {
		t.Fatal(err)
	}
	dp := NewDirProvider(dir)
	if err := dp.Preload(0); err != nil {
		t.Fatal(err)
	}
	// Every party-0 geometry is already cached: lookups must succeed and
	// hand back the preloaded cursor-bearing stores.
	for _, shape := range shapes {
		src, err := dp.SourceFor(0, shape)
		if err != nil {
			t.Fatalf("party 0 %v after preload: %v", shape, err)
		}
		if src.(*corr.Store).Remaining() == 0 {
			t.Fatalf("party 0 %v: preloaded store already exhausted", shape)
		}
	}
	// A directory that does not exist is a soft miss, not a preload error.
	if err := NewDirProvider(filepath.Join(dir, "nope")).Preload(0); err != nil {
		t.Fatalf("missing dir must preload as empty, got: %v", err)
	}
	// A party-1 store renamed to the party-0 filename must be rejected at
	// preload — never cached behind the party-0 key, where the lazy path's
	// ownership check would no longer run.
	name0 := corr.FileName(0, shapes[0])
	p1bytes, err := os.ReadFile(filepath.Join(dir, corr.FileName(1, shapes[0])))
	if err != nil {
		t.Fatal(err)
	}
	swapDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(swapDir, name0), p1bytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewDirProvider(swapDir).Preload(0); err == nil || !strings.Contains(err.Error(), "holds party 1 material") {
		t.Fatalf("wrong-party store behind the party-0 name must fail preload, got: %v", err)
	}
	// A corrupt store file fails preload loudly.
	data, err := os.ReadFile(filepath.Join(dir, name0))
	if err != nil {
		t.Fatal(err)
	}
	corruptDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(corruptDir, name0), data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewDirProvider(corruptDir).Preload(0); err == nil {
		t.Fatal("corrupt store must fail preload")
	}
}

// TestSessionWithDirProvider runs the deployed shape end to end: stores
// written by writeStores, two Sessions over a pipe with DirProviders on
// both sides, several flushes of two geometries, then exhaustion on the
// flush past the preprocessed budget.
func TestSessionWithDirProvider(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const flushes = 2
	shapes := [][]int{{1, 3, 16, 16}, {2, 3, 16, 16}}
	paths, err := writeStores(prog, 77, shapes, flushes, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("writeStores wrote %d files, want 4", len(paths))
	}

	q1 := query(d, 5)
	q2, _ := d.Batch([]int{6, 7})
	c0, c1 := transport.Pipe()
	codec := fixed.Default64()
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, c0, 77, 1001, codec)
		sess, err := NewSessionOpts(p0, m, []int{0, 3, 16, 16}, SessionOptions{})
		if err != nil {
			serveErr = err
			return
		}
		sess.UsePreprocessed(NewDirProvider(dir))
		serveErr = sess.Serve()
	}()

	p1 := mpc.NewParty(1, c1, 77, 1002, codec)
	sess, err := NewSessionOpts(p1, m, nil, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess.UsePreprocessed(NewDirProvider(dir))
	// Two flushes per geometry — exactly the preprocessed budget.
	plain1 := m.Net.Forward(q1, false).Data
	plain2 := m.Net.Forward(q2, false).Data
	for f := 0; f < flushes; f++ {
		got1, err := sess.Query(q1)
		if err != nil {
			t.Fatalf("flush %d geometry 1: %v", f, err)
		}
		if diff := MaxAbsErr(got1, plain1); diff > 0.08 {
			t.Fatalf("flush %d geometry 1: diff %v", f, diff)
		}
		got2, err := sess.Query(q2)
		if err != nil {
			t.Fatalf("flush %d geometry 2: %v", f, err)
		}
		if diff := MaxAbsErr(got2, plain2); diff > 0.08 {
			t.Fatalf("flush %d geometry 2: diff %v", f, diff)
		}
	}
	// One flush past the budget: both sides must fail with the store
	// exhaustion error (party 0's serve loop returns it too).
	if _, err := sess.Query(q1); err == nil {
		t.Fatal("flush past the preprocessed budget must error")
	} else if !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("want exhaustion error, got: %v", err)
	}
	wg.Wait()
	if serveErr == nil || !strings.Contains(serveErr.Error(), "exhausted") {
		t.Fatalf("party 0 must surface the exhaustion error, got: %v", serveErr)
	}
	// A geometry never preprocessed is rejected by the provider with a
	// descriptive error before any protocol traffic.
	dp := NewDirProvider(dir)
	if _, err := dp.SourceFor(0, []int{8, 3, 16, 16}); err == nil {
		t.Fatal("unpreprocessed geometry must error")
	} else if !strings.Contains(err.Error(), "no preprocessed store") {
		t.Fatalf("want provider error, got: %v", err)
	}

	// Mixed provisioning — store on one side, live dealer on the other —
	// would yield inconsistent correlation halves and silently wrong
	// logits; the per-flush source stamp must fail both parties instead.
	mc0, mc1 := transport.Pipe()
	var mixedErr0 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, mc0, 77, 2001, codec)
		sess0, err := NewSessionOpts(p0, m, []int{0, 3, 16, 16}, SessionOptions{})
		if err != nil {
			mixedErr0 = err
			return
		}
		sess0.UsePreprocessed(NewDirProvider(dir))
		_, _, mixedErr0 = sess0.ServeOne()
	}()
	mp1 := mpc.NewParty(1, mc1, 77, 2002, codec)
	mixedSess, err := NewSessionOpts(mp1, m, nil, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mixedSess.Query(q1) // no provider on party 1
	wg.Wait()
	for party, e := range []error{mixedErr0, err} {
		if e == nil || !strings.Contains(e.Error(), "correlation sources diverge") {
			t.Fatalf("party %d: mixed provisioning must fail with the divergence error, got: %v", party, e)
		}
	}

	// A provider that fails to resolve on one side (e.g. that party's
	// store dir is missing the flush geometry) must not hang the peer or
	// kill the session: the stamp exchange still completes, and both
	// parties symmetrically degrade that flush to the live dealer.
	ec0, ec1 := transport.Pipe()
	var fbErr0 error
	var fb0 int
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, ec0, 77, 3001, codec)
		sess0, err := NewSessionOpts(p0, m, []int{0, 3, 16, 16}, SessionOptions{})
		if err != nil {
			fbErr0 = err
			return
		}
		sess0.UsePreprocessed(NewDirProvider(t.TempDir())) // empty dir: every lookup fails
		_, _, fbErr0 = sess0.ServeOne()
		fb0 = sess0.Fallbacks()
	}()
	fp1 := mpc.NewParty(1, ec1, 77, 3002, codec)
	fbSess, err := NewSessionOpts(fp1, m, nil, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fbSess.UsePreprocessed(NewDirProvider(dir))
	logits, err := fbSess.Query(q1)
	wg.Wait()
	if fbErr0 != nil {
		t.Fatalf("party 0 must degrade to the live dealer, got: %v", fbErr0)
	}
	if err != nil {
		t.Fatalf("party 1 must degrade to the live dealer, got: %v", err)
	}
	if diff := MaxAbsErr(logits, plain1); diff > 0.08 {
		t.Fatalf("fallback flush logits diff %v", diff)
	}
	if fb0 != 1 || fbSess.Fallbacks() != 1 {
		t.Fatalf("fallback counters: party0=%d party1=%d, want 1/1", fb0, fbSess.Fallbacks())
	}

	// A corrupt store is NOT a capacity gap: it must stay fatal on the
	// party holding it, and surface on the peer as a hard provider
	// failure — never a silent live-dealer fallback.
	corruptDir := t.TempDir()
	name := corr.FileName(0, []int{1, 3, 16, 16})
	goodBytes, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corruptDir, name), goodBytes[:len(goodBytes)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cc0, cc1 := transport.Pipe()
	var hardErr0 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, cc0, 77, 4001, codec)
		sess0, err := NewSessionOpts(p0, m, []int{0, 3, 16, 16}, SessionOptions{})
		if err != nil {
			hardErr0 = err
			return
		}
		sess0.UsePreprocessed(NewDirProvider(corruptDir))
		_, _, hardErr0 = sess0.ServeOne()
	}()
	cp1 := mpc.NewParty(1, cc1, 77, 4002, codec)
	hardSess, err := NewSessionOpts(cp1, m, nil, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hardSess.UsePreprocessed(NewDirProvider(dir))
	_, err = hardSess.Query(q1)
	wg.Wait()
	if hardErr0 == nil || !strings.Contains(hardErr0.Error(), "checksum") {
		t.Fatalf("party 0 must fail fatally on its corrupt store, got: %v", hardErr0)
	}
	if err == nil || !strings.Contains(err.Error(), "peer failed to resolve") {
		t.Fatalf("party 1 must learn the peer's provider failed fatally, got: %v", err)
	}
}
