package pi

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// Suite for the session lifetime of the weight masks: one F = W−b, sent at
// setup, serves every later flush and geometry (store-fed ≡ live,
// bit-for-bit), the tape's fixed-mask demands name exactly the slots Setup
// fixed under
// every kernel setting, the weight side is paid once, in setup, and the
// fallback budget-telemetry regression (a live-dealer fallback must reset
// RemainingBudget to -1 on both parties, not leave a stale store stamp).

// TestFixedMaskCrossSourceEquivalence pins that the masks outlive the
// flush: over the program zoo, one Setup fixes F = W−b and then serves an
// N=1 flush followed by an N=4 flush, whose linear layers reuse the same
// mask slots at a new geometry. Fed from one store built over both
// flushes' tapes, the session is bit-identical to the live-dealer session,
// consumes the whole store, and matches plaintext on every flush.
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
			seed := uint64(80 + 10*vi)
			var xs []*tensor.Tensor
			var tape corr.Tape
			for _, n := range []int{1, 4} {
				x := tensor.New(n, v.inC, v.hw, v.hw).RandNorm(r, 0.5)
				flushTape, err := TraceTape(prog, x.Shape)
				if err != nil {
					t.Fatal(err)
				}
				xs = append(xs, x)
				tape = append(tape, flushTape...)
			}
			live := inferFlushes(t, prog, xs, seed, [2]mpc.CorrelationSource{})
			s0, s1, err := corr.BuildPair(tape, rng.New(seed), seed)
			if err != nil {
				t.Fatal(err)
			}
			stored := inferFlushes(t, prog, xs, seed, [2]mpc.CorrelationSource{s0, s1})
			for f, x := range xs {
				for i := range live[f] {
					if stored[f][i] != live[f][i] {
						t.Fatalf("flush %d (N=%d): store-fed logit %d differs from the live session: %v vs %v",
							f, x.Shape[0], i, stored[f][i], live[f][i])
					}
				}
				if d := MaxAbsErr(live[f], net.Forward(x, false).Data); d > bound {
					t.Fatalf("flush %d (N=%d): vs plaintext diff %v", f, x.Shape[0], d)
				}
			}
			if s0.Remaining() != 0 || s1.Remaining() != 0 {
				t.Fatalf("two-flush stores not fully consumed: %d/%d left", s0.Remaining(), s1.Remaining())
			}
		})
	}
}

// engineSlots lists the weight slots of prog's linear ops in the order the
// engine takes their correlations, each with whether its take is
// shared-mask: a linear op's first slot takes a fresh mask, and a second
// (a residual's shortcut head) rides under the first one's.
func engineSlots(prog *Program) (slots []int, shared []bool) {
	for _, op := range prog.Ops {
		for i, s := range op.slots {
			slots, shared = append(slots, s), append(shared, i > 0)
		}
	}
	return slots, shared
}

// sharesHead reports whether op runs a residual's two heads under one
// activation mask.
func (op *progOp) sharesHead() bool { return len(op.slots) > 1 }

// TestFixedTapeDeterminismAcrossKernelSettings pins the fixed-mask
// material as worker-count- and kernel-path-independent on both of its
// sides: under every kernel setting, Setup of the demo backbone fixes the
// golden F = W−b, and the traced tape's FixedB demands name the slots
// Setup fixed — each once, in the engine's order (engineSlots), each
// sized to its F, shared-mask exactly where a residual's shortcut head
// shares its body head's mask — with no per-flush weight-mask demand
// left.
func TestFixedTapeDeterminismAcrossKernelSettings(t *testing.T) {
	prog := demoProgram(t)
	for _, s := range kernelSettings() {
		s := s
		withKernelSetting(s, func() {
			c0, c1 := transport.Pipe()
			engs := setupBoth(t, prog, c0, c1)
			var fs [][]uint64
			for _, fw := range engs[0].fixedWs {
				fs = append(fs, fw.F())
			}
			if got := wordsDigest(fs...); got != goldenSetupF {
				t.Fatalf("%s: Setup fixed F digest %#x, want %#x", s.name, got, goldenSetupF)
			}
			tape, err := TraceTape(prog, []int{2, 3, 8, 8})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			order, shared := engineSlots(prog)
			if len(order) != len(fs) {
				t.Fatalf("%s: the program has %d linear ops, Setup fixed %d", s.name, len(order), len(fs))
			}
			slot := 0
			for i, d := range tape {
				var words int
				switch d.Kind {
				case corr.KindConvFixedB:
					words = d.Conv.KLen()
				case corr.KindMatMulFixedB:
					words = d.K * d.P
				case corr.KindConv, corr.KindMatMul:
					t.Fatalf("%s: demand %d is the per-flush %s", s.name, i, d)
				default:
					continue
				}
				if slot >= len(fs) || d.Mask != order[slot] || d.Shared != shared[slot] || words != len(fs[order[slot]]) {
					t.Fatalf("%s: demand %d %s names mask %d of %d words; want slot %d (shared %v) of the %d Setup fixed",
						s.name, i, d, d.Mask, words, order[min(slot, len(order)-1)], shared[min(slot, len(order)-1)], len(fs))
				}
				slot++
			}
			if slot != len(fs) {
				t.Fatalf("%s: tape uses %d mask slots, Setup fixed %d", s.name, slot, len(fs))
			}
		})
	}
}

// weightWords sums the weight-operand element counts of a demand tape —
// the words of F = W−b Setup sends, once per session.
func weightWords(tape corr.Tape) int {
	words := 0
	for _, d := range tape {
		switch d.Kind {
		case corr.KindMatMulFixedB:
			words += d.K * d.P
		case corr.KindConvFixedB:
			words += d.Conv.KLen()
		}
	}
	return words
}

// TestFixedMaskBytesAmortized pins where the weight side is paid: over a
// multi-flush session pair, setup moves exactly party 0's one frame of
// F = W−b (8 bytes per weight word), and every flush moves the same bytes
// — nothing weight-sized comes back after setup. The op-level saving over
// per-flush weight masks (8 bytes per weight word and party) is pinned by
// mpc's TestMatMulFixedWMatchesPlain.
func TestFixedMaskBytesAmortized(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := TraceTape(prog, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	wWords := weightWords(tape)
	if wWords == 0 {
		t.Fatal("model has no linear-layer weight words; bytes test is vacuous")
	}
	q := query(d, 11)
	const flushes = 3

	m0, m1 := transport.Pipe()
	c0, c1 := obs.InstrumentConn(m0, nil), obs.InstrumentConn(m1, nil)
	codec := fixed.Default64()
	var wg sync.WaitGroup
	var serveErr error
	setupDone := make(chan struct{})
	// flushStart/flushDone bracket each flush so the byte snapshots see
	// both parties quiescent: party 0 must not enter the next ServeOne
	// early (its side of the shape exchange sends eagerly) and must have
	// finished the current one (all sends counted) when sampled.
	flushStart := make(chan struct{})
	flushDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, c0, 91, 8001, codec)
		sess0, err := NewSessionOpts(p0, m, []int{0, 3, 16, 16}, SessionOptions{})
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
	sess1, err := NewSessionOpts(p1, m, nil, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-setupDone
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	total := func() int64 { return c0.Totals().SentBytes + c1.Totals().SentBytes }
	setup := total()
	if want := int64(8 * wWords); setup != want {
		t.Errorf("setup moved %d bytes, want exactly %d (F = W−b over %d weight words)", setup, want, wWords)
	}
	last := setup
	var flushBytes []int64
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
	for f := 1; f < flushes; f++ {
		if flushBytes[f] != flushBytes[0] {
			t.Errorf("flush %d moved %d bytes, flush 0 moved %d", f, flushBytes[f], flushBytes[0])
		}
	}
}

// TestRunBatchFixedMaskEquivalence pins the high-level API's weight-side
// bookkeeping: on the live and the preprocessed path, for one query or
// three, Result.SetupBytes is exactly party 0's frame of F = W−b — paid
// per session, whatever the source or the batch — and the two paths'
// logits stay bit-identical.
func TestRunBatchFixedMaskEquivalence(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := TraceTape(prog, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	wantSetup := int64(8 * weightWords(tape))
	for _, queries := range [][]*tensor.Tensor{
		{query(d, 1)},
		{query(d, 1), query(d, 2), query(d, 3)},
	} {
		live, err := Run(m, queries, 93, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pre, err := Run(m, queries, 93, RunOptions{Preprocess: true})
		if err != nil {
			t.Fatal(err)
		}
		if live.SetupBytes != wantSetup || pre.SetupBytes != wantSetup {
			t.Fatalf("K=%d: setup bytes live %d, preprocessed %d; want %d (8 B per weight word)",
				len(queries), live.SetupBytes, pre.SetupBytes, wantSetup)
		}
		for i := range live.Output {
			if pre.Output[i] != live.Output[i] {
				t.Fatalf("K=%d: preprocessed logit %d differs from the live path: %v vs %v",
					len(queries), i, pre.Output[i], live.Output[i])
			}
		}
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

// TestSharedHeadsOnTape pins where the engine shares an activation mask:
// only at a residual whose body and shortcut both start with a linear op
// on the block input — a dense pair, a nested residual's outer block, a
// depthwise shortcut head — never at an identity shortcut or one that
// pools first. Each such residual's tape carries one shared-mask demand,
// right after the fresh-mask demand of its body head.
func TestSharedHeadsOnTape(t *testing.T) {
	want := map[string]int{"x2-projection-shortcut": 1, "nested-residual": 1, "depthwise-shortcut": 1}
	for vi, v := range netVariants {
		r := rng.New(uint64(3000 + vi))
		net := v.build(r, v.hw, v.inC, 3)
		prog, err := Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := TraceTape(prog, []int{2, v.inC, v.hw, v.hw})
		if err != nil {
			t.Fatal(err)
		}
		shared := 0
		for i, d := range tape {
			if !d.Shared {
				continue
			}
			shared++
			if i == 0 || tape[i-1].Shared || (tape[i-1].Kind != corr.KindConvFixedB && tape[i-1].Kind != corr.KindMatMulFixedB) {
				t.Fatalf("%s: shared-mask demand %d (%s) does not follow a fresh FixedB demand", v.name, i, d)
			}
		}
		if shared != want[v.name] {
			t.Errorf("%s: %d shared-mask demands, want %d", v.name, shared, want[v.name])
		}
	}
}
