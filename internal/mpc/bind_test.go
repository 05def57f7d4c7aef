package mpc_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
)

// Suite for binding: party 1's output share of a fixed-weight op,
// Y₁ = trunc(a∘F + z₁), computed into its store ahead of the query
// (mpc.Binder through corr.Store.Bind or corr.ReadBoundFile) must be bit for
// bit what party 1 computes at take time from the live dealer or from an
// unbound store. Party 0's shares and the wire must not move, and a bound
// store must refuse every weight but the ones it was bound with.

// bindSeed is the dealer seed of the suite's sessions and stores.
const bindSeed = 515

// bindHead is one head of a bound op: a convolution at N rows, or (conv
// nil) a product by a wShape weight.
type bindHead struct {
	conv   func(n int) *mpc.ConvDims
	wShape []int
}

// bindCases are the op shapes a served program binds: a conv, a depthwise
// conv, an FC head, and two shared-mask head pairs (a downsampling
// residual's strided body conv with its 1×1 shortcut, and two products).
var bindCases = []struct {
	name   string
	xShape func(n int) []int
	heads  []bindHead
}{
	{"conv", func(n int) []int { return []int{n, 3, 8, 8} }, []bindHead{{conv: func(n int) *mpc.ConvDims {
		return &mpc.ConvDims{N: n, InC: 3, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	}}}},
	{"depthwise", func(n int) []int { return []int{n, 4, 8, 8} }, []bindHead{{conv: func(n int) *mpc.ConvDims {
		return &mpc.ConvDims{N: n, InC: 4, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}
	}}}},
	{"fc", func(n int) []int { return []int{n, 8} }, []bindHead{{wShape: []int{8, 5}}}},
	{"shared-conv", func(n int) []int { return []int{n, 4, 8, 8} }, []bindHead{
		{conv: func(n int) *mpc.ConvDims {
			return &mpc.ConvDims{N: n, InC: 4, H: 8, W: 8, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
		}},
		{conv: func(n int) *mpc.ConvDims {
			return &mpc.ConvDims{N: n, InC: 4, H: 8, W: 8, OutC: 6, KH: 1, KW: 1, Stride: 2}
		}},
	}},
	{"shared-fc", func(n int) []int { return []int{n, 6} }, []bindHead{{wShape: []int{6, 4}}, {wShape: []int{6, 3}}}},
}

// bindTape is the op's demand tape: a FixedB demand for the first head,
// shared-mask ones after it, head i under mask slot i.
func bindTape(heads []bindHead, xShape []int) corr.Tape {
	var tape corr.Tape
	for i, h := range heads {
		d := corr.Demand{Kind: corr.KindMatMulFixedB, Mask: i, Shared: i > 0}
		if h.conv != nil {
			d.Kind, d.Conv = corr.KindConvFixedB, *h.conv(xShape[0])
		} else {
			d.M, d.K, d.P = xShape[0], h.wShape[0], h.wShape[1]
		}
		tape = append(tape, d)
	}
	return tape
}

// bindFeeds are the ways party 1's correlations reach the op. Party 0
// takes from the live dealer on "live" and from its unbound store on every
// other feed.
var bindFeeds = []string{"live", "unbound", "bound", "bound-file"}

// bindRun is what one run of an op gives each party: its output shares,
// and its wire totals over the op.
type bindRun struct {
	shares [2][][]uint64
	wire   [2]obs.WireTotals
}

// runBound runs the op of heads on the query-shaped input xShape — party 1
// holding the encoded input, party 0 zeros, as a served flush does — with
// a bias per head, in a fresh session fed by feed.
func runBound(t *testing.T, xShape []int, heads []bindHead, feed string) bindRun {
	t.Helper()
	r := rng.New(bindSeed + 1)
	xVals := make([]float64, prod(xShape))
	r.FillNorm(xVals, 1)
	wVals, biases, shapes := make([][]float64, len(heads)), make([][]float64, len(heads)), make([][]int, len(heads))
	for i, h := range heads {
		if d := h.conv; d != nil {
			shapes[i], biases[i] = []int{d(xShape[0]).KLen()}, make([]float64, d(xShape[0]).OutC)
		} else {
			shapes[i], biases[i] = h.wShape, make([]float64, h.wShape[1])
		}
		wVals[i] = make([]float64, prod(shapes[i]))
		r.FillNorm(wVals[i], 0.5)
		r.FillNorm(biases[i], 0.5)
	}
	s0, s1, err := corr.BuildPair(bindTape(heads, xShape), rng.New(bindSeed), bindSeed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p1.pcs")
	if err := s1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var run bindRun
	var mu sync.Mutex
	err = mpc.RunProtocol(bindSeed, fixed.Default64(), func(p *mpc.Party) error {
		masks := make([]int, len(heads))
		var ws [][]uint64
		for i := range heads {
			masks[i] = i
			if p.ID == 0 {
				ws = append(ws, p.EncodeTensor(wVals[i]))
			}
		}
		fws, err := p.FixWeights(masks, shapes, ws)
		if err != nil {
			return err
		}
		switch {
		case feed == "live":
		case p.ID == 0 || feed == "unbound":
			p.Source = [2]*corr.Store{s0, s1}[p.ID]
		default:
			b, err := p.NewBinder(fws)
			if err != nil {
				return err
			}
			var st *corr.Store
			if feed == "bound" {
				st, err = s1, s1.Bind(b)
			} else {
				st, err = corr.ReadBoundFile(path, b)
			}
			if err != nil {
				return err
			}
			if st.Binder() != b {
				return fmt.Errorf("the %s store is not bound to the session's binder", feed)
			}
			p.Source = st
		}
		x := mpc.NewShare(xShape...)
		if p.ID == 1 {
			x.V = p.EncodeTensor(xVals)
		}
		ops := make([]mpc.FixedWOp, len(heads))
		for i, h := range heads {
			ops[i] = mpc.FixedWOp{FW: fws[i], Bias: p.EncodeTensor(biases[i])}
			if h.conv != nil {
				ops[i].Conv = h.conv(xShape[0])
			}
		}
		conn := obs.InstrumentConn(p.Conn, nil)
		p.Conn = conn
		ys, err := p.LinearFixedW(x, ops...)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		run.wire[p.ID] = conn.Totals()
		for _, y := range ys {
			run.shares[p.ID] = append(run.shares[p.ID], y.V)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestBoundSharesMatchTakeTime runs every case at N = 1 and 16 on the
// live dealer, an unbound store, a store bound once loaded and a store
// bound as it decodes: every party's every output share must be
// bit-identical across the four, and the wire must not move (party 1
// sends one input-sized frame, party 0 sends nothing).
func TestBoundSharesMatchTakeTime(t *testing.T) {
	for _, c := range bindCases {
		for _, n := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/N=%d", c.name, n), func(t *testing.T) {
				xShape := c.xShape(n)
				live := runBound(t, xShape, c.heads, "live")
				for _, feed := range bindFeeds[1:] {
					got := runBound(t, xShape, c.heads, feed)
					if got.wire != live.wire {
						t.Errorf("%s: wire %+v, live %+v", feed, got.wire, live.wire)
					}
					for id := range got.shares {
						for i := range got.shares[id] {
							for j, v := range got.shares[id][i] {
								if w := live.shares[id][i][j]; v != w {
									t.Fatalf("%s: party %d head %d share[%d] = %#x, live dealer %#x", feed, id, i, j, v, w)
								}
							}
						}
					}
				}
				if want := (obs.WireTotals{SentFrames: 1, SentBytes: int64(8 * prod(xShape))}); live.wire[1] != want {
					t.Errorf("party 1 wire %+v, want one %d-word frame", live.wire[1], prod(xShape))
				}
			})
		}
	}
}

// fixIn fixes one 4→4 3×3 conv weight (mask slot 0) of values drawn from
// wSeed in a session under dealer seed seed, and returns each party's
// error. With bind, party 1 then binds its store st[1] to the session;
// otherwise both parties run the op of conv4 off their stores.
func fixIn(seed, wSeed uint64, st [2]*corr.Store, bind bool) [2]error {
	d := conv4(2)
	wVals := make([]float64, d.KLen())
	rng.New(wSeed).FillNorm(wVals, 0.5)
	var errs [2]error
	_ = mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) (err error) {
		defer func() { errs[p.ID] = err }()
		var ws [][]uint64
		if p.ID == 0 {
			ws = [][]uint64{p.EncodeTensor(wVals)}
		}
		fws, err := p.FixWeights([]int{0}, [][]int{{d.KLen()}}, ws)
		if err != nil {
			return err
		}
		if bind {
			if p.ID == 0 {
				return nil
			}
			b, err := p.NewBinder(fws)
			if err != nil {
				return err
			}
			return st[1].Bind(b)
		}
		p.Source = st[p.ID]
		_, err = p.LinearFixedW(mpc.NewShare(2, 4, 8, 8), mpc.FixedWOp{FW: fws[0], Conv: &d})
		return err
	})
	return errs
}

// conv4 is a 4→4 3×3 pad-1 conv on n 8×8 rows.
func conv4(n int) mpc.ConvDims {
	return mpc.ConvDims{N: n, InC: 4, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
}

// TestBoundStoreRefusesOtherWeights binds a store to one session's
// weights and hands it to sessions that fixed others: a revived generation
// (another dealer seed) and another model (the same seed, other weights).
// Party 1 must refuse the take before it sends anything, naming the
// bound seed, and party 0, waiting on its E', must fail too.
func TestBoundStoreRefusesOtherWeights(t *testing.T) {
	tape := corr.Tape{{Kind: corr.KindConvFixedB, Conv: conv4(2)}}
	for _, c := range []struct {
		name        string
		seed, wSeed uint64
	}{
		{"revived-generation", bindSeed + 7, 11},
		{"another-model", bindSeed, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			s0, s1, err := corr.BuildPair(tape, rng.New(bindSeed), bindSeed)
			if err != nil {
				t.Fatal(err)
			}
			if errs := fixIn(bindSeed, 11, [2]*corr.Store{nil, s1}, true); errs != [2]error{} {
				t.Fatalf("binding session: %v", errs)
			}
			errs := fixIn(c.seed, c.wSeed, [2]*corr.Store{s0, s1}, false)
			want := fmt.Sprintf("bound to the fixed weights of a session under dealer seed %#x", uint64(bindSeed))
			if errs[1] == nil || !strings.Contains(errs[1].Error(), want) {
				t.Errorf("party 1 took from a store bound to other weights: %v", errs[1])
			}
			if errs[0] == nil {
				t.Error("party 0 finished an op party 1 refused")
			}
			if s1.Remaining() != 1 {
				t.Errorf("the refused take consumed the store: %d entries left", s1.Remaining())
			}
		})
	}
}

// TestBinderRefusals pins what binding refuses, each with the store left
// as it was: party 0 as a binder's party, two weights under one slot, a
// second bind of one store (to the same binder or another), a party-0
// store, a store of another program (a slot the session lacks, a geometry
// its weight does not fit) and writing a bound store.
func TestBinderRefusals(t *testing.T) {
	d := conv4(1)
	var fws [2][]*mpc.FixedWeight
	var binders [2]*mpc.Binder
	var binderErrs [2]error
	err := mpc.RunProtocol(bindSeed, fixed.Default64(), func(p *mpc.Party) error {
		var ws [][]uint64
		if p.ID == 0 {
			ws = [][]uint64{make([]uint64, d.KLen()), make([]uint64, 6*4)}
		}
		got, err := p.FixWeights([]int{0, 1}, [][]int{{d.KLen()}, {6, 4}}, ws)
		if err != nil {
			return err
		}
		fws[p.ID] = got
		binders[p.ID], binderErrs[p.ID] = p.NewBinder(got)
		if p.ID == 1 {
			if _, err := p.NewBinder([]*mpc.FixedWeight{got[0], got[0]}); err == nil || !strings.Contains(err.Error(), "two fixed weights under mask slot 0") {
				return fmt.Errorf("a binder of two weights under one slot: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if binderErrs[0] == nil || binderErrs[1] != nil {
		t.Fatalf("NewBinder: party 0 %v (want a refusal), party 1 %v", binderErrs[0], binderErrs[1])
	}
	b := binders[1]
	build := func(tape corr.Tape) (*corr.Store, *corr.Store) {
		t.Helper()
		s0, s1, err := corr.BuildPair(tape, rng.New(bindSeed), bindSeed)
		if err != nil {
			t.Fatal(err)
		}
		return s0, s1
	}
	conv := corr.Demand{Kind: corr.KindConvFixedB, Conv: d}
	refused := func(name string, st *corr.Store, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, want)
		}
		if st != nil && st.Binder() != nil {
			t.Errorf("%s: the refused store is bound", name)
		}
	}

	s0, s1 := build(corr.Tape{conv})
	refused("party-0 store", s0, s0.Bind(b), "only party 1's output share")
	if err := s1.Bind(b); err != nil {
		t.Fatal(err)
	}
	if err := s1.Bind(b); err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Errorf("a second bind to the same binder: %v", err)
	}
	// Another binder over the same weights is another session.
	other, err := (&mpc.Party{ID: 1, Dealer: mpc.NewDealer(bindSeed, 1), Codec: fixed.Default64()}).NewBinder(fws[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Bind(other); err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Errorf("a second bind to another binder: %v", err)
	}
	if err := s1.WriteFile(filepath.Join(t.TempDir(), "bound.pcs")); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Errorf("writing a bound store: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("encoding a bound store did not panic")
			}
		}()
		s1.Encode()
	}()

	// A store of another program: its entries must stay z₁, so the
	// store encodes to the same bytes after the refusal.
	for _, c := range []struct {
		name string
		tape corr.Tape
		want string
	}{
		{"missing-slot", corr.Tape{conv, {Kind: corr.KindConvFixedB, Mask: 7, Conv: d}}, "no fixed weight under mask slot 7"},
		{"conv-geometry", corr.Tape{conv, {Kind: corr.KindConvFixedB, Mask: 1, Conv: mpc.ConvDims{N: 1, InC: 4, H: 8, W: 8, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}}}, "needs a 72-word kernel, the session's weight holds 24"},
		{"matmul-shape", corr.Tape{{Kind: corr.KindMatMulFixedB, Mask: 1, M: 2, K: 4, P: 6}}, "needs a 4×6 weight"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, s1 := build(c.tape)
			before := s1.Encode()
			refused("Bind", s1, s1.Bind(b), c.want)
			if string(s1.Encode()) != string(before) {
				t.Error("a refused bind changed the store")
			}
			path := filepath.Join(t.TempDir(), "p1.pcs")
			if err := s1.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			st, err := corr.ReadBoundFile(path, b)
			refused("ReadBoundFile", st, err, c.want)
		})
	}
	path := filepath.Join(t.TempDir(), "p0.pcs")
	s0, _ = build(corr.Tape{conv})
	if err := s0.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	_, err = corr.ReadBoundFile(path, b)
	refused("party-0 file", nil, err, "only party 1's output share")
}
