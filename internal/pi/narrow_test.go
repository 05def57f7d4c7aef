package pi

import (
	"strings"
	"sync"
	"testing"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/nn"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// Suite for bounded ReLU layers: a model whose ReLUs carry a recorded
// input bound runs the narrow comparison on every path the unbounded one
// runs, a model without bounds moves exactly the wire traffic it always
// did, and two parties that compiled different widths fail rather than
// answer.

// boundedVariant returns the relu-maxpool-residual zoo network, warmed,
// with every ReLU's input bound recorded over the warm-up distribution,
// plus queries drawn from it.
func boundedVariant(t *testing.T, seed uint64, queries int) (*nn.Network, []*tensor.Tensor) {
	t.Helper()
	v := netVariants[1]
	r := rng.New(seed)
	net := v.build(r, v.hw, v.inC, 3)
	warmNet(net, r, v.hw, v.inC)
	if n := net.RecordReLUBounds(func(i int) *tensor.Tensor {
		if i == 4 {
			return nil
		}
		return tensor.New(8, v.inC, v.hw, v.hw).RandNorm(r, 0.5)
	}); n != 3 {
		t.Fatalf("recorded %d ReLU bounds, want 3", n)
	}
	for i, l := range net.ReLUs() {
		if h := mpc.ReLUHeadroom(fixed.Default64(), l.Bound); h <= mpc.NarrowMargin {
			t.Fatalf("ReLU %d: bound %v leaves headroom %v, want a narrow layer", i, l.Bound, h)
		}
	}
	return net, randQueries(r, queries, v.inC, v.hw)
}

// unbounded compiles net as if no bound had been recorded.
func unbounded(t *testing.T, net *nn.Network) *Program {
	t.Helper()
	relus := net.ReLUs()
	saved := make([]float64, len(relus))
	for i, l := range relus {
		saved[i], l.Bound = l.Bound, 0
	}
	defer func() {
		for i, l := range relus {
			l.Bound = saved[i]
		}
	}()
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestBoundedReLUEquivalence runs a model with narrow ReLU layers through
// the equivalence suite: batch ≡ sequential ≡ plaintext, and store-fed ≡
// live dealer bit for bit with the whole store consumed.
func TestBoundedReLUEquivalence(t *testing.T) {
	const bound = 0.05
	net, queries := boundedVariant(t, 7100, 3)
	seq, batched := crossPathOutputs(t, net, queries, 71)
	for i, q := range queries {
		plain := net.Forward(q, false).Data
		if d := MaxAbsErr(seq[i], plain); d > bound {
			t.Fatalf("query %d: sequential vs plaintext diff %v", i, d)
		}
		if d := MaxAbsErr(batched[i], plain); d > bound {
			t.Fatalf("query %d: batched vs plaintext diff %v", i, d)
		}
	}

	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := PackQueries(queries)
	if err != nil {
		t.Fatal(err)
	}
	live := inferLogits(t, prog, x, 72, [2]mpc.CorrelationSource{})
	tape, err := TraceTape(prog, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1, err := corr.BuildPair(tape, rng.New(72), 72)
	if err != nil {
		t.Fatal(err)
	}
	stored := inferLogits(t, prog, x, 72, [2]mpc.CorrelationSource{s0, s1})
	for i := range live {
		if stored[i] != live[i] {
			t.Fatalf("store-fed logit %d differs from live-dealer path: %v vs %v", i, stored[i], live[i])
		}
	}
	if s0.Remaining() != 0 || s1.Remaining() != 0 {
		t.Fatalf("stores not fully consumed: %d/%d left", s0.Remaining(), s1.Remaining())
	}
	if d := MaxAbsErr(stored, net.Forward(x, false).Data); d > bound {
		t.Fatalf("store-fed vs plaintext diff %v", d)
	}
}

// flushWire runs one Setup and one flush of x per party — party id on
// progs[id] — and returns what each party sent during the flush.
func flushWire(t *testing.T, progs [2]*Program, x *tensor.Tensor, seed uint64) ([2]obs.WireTotals, [2]error) {
	t.Helper()
	var mu sync.Mutex
	var wire [2]obs.WireTotals
	var errs [2]error
	err := mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
		eng := NewEngine(progs[p.ID])
		if err := eng.Setup(p); err != nil {
			return err
		}
		w := obs.InstrumentConn(p.Conn, nil)
		p.Conn = w
		var enc []uint64
		if p.ID == 1 {
			enc = p.EncodeTensor(x.Data)
		}
		in, err := p.ShareInput(1, enc, x.Shape...)
		if err == nil {
			var out mpc.Share
			if out, err = eng.Infer(in); err == nil {
				_, err = p.Reveal(out)
			}
		}
		mu.Lock()
		wire[p.ID], errs[p.ID] = w.Totals(), err
		mu.Unlock()
		return err
	})
	if err != nil && errs[0] == nil && errs[1] == nil {
		t.Fatal(err)
	}
	return wire, errs
}

// TestUnboundedReLUWireUnchanged: a model without recorded bounds moves
// exactly the frames every model moved before bounds existed and the bytes
// it moved then less the one-bit select's saving (the figures pinned
// here), and the bounded one saves exactly the narrow layout's difference
// — one exchange and 546 − 177 owned triples per element — at each of its
// ReLU layers.
func TestUnboundedReLUWireUnchanged(t *testing.T) {
	net, _ := boundedVariant(t, 7200, 0)
	v := netVariants[1]
	x := tensor.New(2, v.inC, v.hw, v.hw).RandNorm(rng.New(73), 0.5)
	wide := unbounded(t, net)
	narrow, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	wideWire, errs := flushWire(t, [2]*Program{wide, wide}, x, 74)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	narrowWire, errs := flushWire(t, [2]*Program{narrow, narrow}, x, 74)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}

	// Party 0 and party 1 sent 21 and 26 frames, 97104 and 106320 bytes,
	// before ReLU layers had bounds, when a select of n elements sent 2n
	// words; it now sends n words and ⌈n/64⌉ words of selector bits. The
	// three ReLU layers select 2·4·8·8, 2·4·4·4 and 2·4·4·4 elements, the
	// 2×2 maxpool's two levels 2·128 and 128.
	wantFrames, wantBytes := [2]int64{21, 26}, [2]int64{97104, 106320}
	for _, n := range []int{512, 128, 128, 256, 128} {
		for id := range wantBytes {
			wantBytes[id] -= 8 * int64(n-mpc.BitWords(n))
		}
	}
	var saveFrames, saveBytes int64
	for _, n := range []int{512, 128, 128} {
		saveFrames++
		saveBytes += 8 * int64(mpc.BitWords(434*n)+mpc.BitWords(98*n)+mpc.BitWords(14*n)-mpc.BitWords(147*n)-mpc.BitWords(30*n))
	}
	for id := range 2 {
		w := wideWire[id]
		if w.SentFrames != wantFrames[id] || w.SentBytes != wantBytes[id] || w.RecvFrames != wideWire[1-id].SentFrames || w.RecvBytes != wideWire[1-id].SentBytes {
			t.Errorf("party %d: unbounded flush moved %+v, want %d frames / %d B sent", id, w, wantFrames[id], wantBytes[id])
		}
		nw := narrowWire[id]
		if nw.SentFrames != w.SentFrames-saveFrames || nw.SentBytes != w.SentBytes-saveBytes {
			t.Errorf("party %d: bounded flush sent %d frames / %d B, want %d / %d",
				id, nw.SentFrames, nw.SentBytes, w.SentFrames-saveFrames, w.SentBytes-saveBytes)
		}
	}
}

// TestComparisonWidthMismatchFails: parties whose compiled programs
// disagree on a ReLU layer's width — one holds the recorded bound, the
// other does not — both fail on that layer's first owned round, never
// revealing logits.
func TestComparisonWidthMismatchFails(t *testing.T) {
	net, queries := boundedVariant(t, 7300, 1)
	narrow, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	wide := unbounded(t, net)
	for _, progs := range [][2]*Program{{narrow, wide}, {wide, narrow}} {
		_, errs := flushWire(t, progs, queries[0], 75)
		for id, err := range errs {
			if err == nil {
				t.Fatalf("party %d answered a flush its peer compiled at another comparison width", id)
			}
			if !strings.Contains(err.Error(), "relu") {
				t.Errorf("party %d failed outside the ReLU layer: %v", id, err)
			}
		}
	}
}
