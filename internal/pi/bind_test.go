package pi

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
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

// Suite for party 1's bound stores: a store bound to its session holds
// each linear op's party-1 output share Y₁ = trunc(a∘F + z₁) in place of
// z₁, computed while it loads. Every linear op's shares and every served
// logit must be bit-identical to the live dealer's and an unbound store's,
// on every path a store gets bound by (bound once loaded, bound as Preload
// decodes it, bound as a lazy SourceFor decodes it), and a bound store
// must serve no session but its own.

// bindClasses are the demo backbone's three program classes.
var bindClasses = []string{"x2-avg", "relu-max", "mixed"}

// linearFeeds are the ways party 1's correlations reach a linear op:
// the live dealer, an unbound store, a store bound once loaded
// (Store.Bind), and a store bound as it decodes (ReadBoundFile). Party 0
// takes from its unbound store on every feed but the live one.
var linearFeeds = []string{"live", "unbound", "bound", "bound-file"}

// linearOpShares runs every linear op of prog, in program order, at n
// query rows through Engine.linear — heads, destinations and biases as a
// flush runs them — on a fresh engine pair fed by feed, each op on an
// input of its own (party 1 holding encoded values, party 0 zeros). It
// returns each party's output share of every head, in order. The stores
// are dealt for the program's linear demands alone, off the stream the
// live dealer deals them from.
func linearOpShares(t *testing.T, prog *Program, n int, feed string) [2][][]uint64 {
	t.Helper()
	tape, err := TraceTape(prog, []int{n, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	var lin corr.Tape
	for _, d := range tape {
		if d.Kind == corr.KindConvFixedB || d.Kind == corr.KindMatMulFixedB {
			lin = append(lin, d)
		}
	}
	s0, s1, err := corr.BuildPair(lin, rng.New(servedDealerSeed), servedDealerSeed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p1.pcs")
	if err := s1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ep := newEnginePair(t, prog)
	var outs [2][][]uint64
	err = mpc.RunPair(ep.links, func(id int) error {
		p, e := ep.ps[id], ep.engs[id]
		switch {
		case feed == "live":
		case id == 0 || feed == "unbound":
			p.Source = [2]*corr.Store{s0, s1}[id]
		default:
			b, err := p.NewBinder(e.fixedWs)
			if err != nil {
				return err
			}
			st := s1
			if feed == "bound" {
				err = s1.Bind(b)
			} else {
				st, err = corr.ReadBoundFile(path, b)
			}
			if err != nil {
				return err
			}
			p.Source = st
		}
		e.ws = e.newWorkspace()
		for i := range e.ws.home {
			e.ws.home[i] = -1
		}
		j := 0
		for k := range prog.Ops {
			op := &prog.Ops[k]
			if op.kind != opLinear {
				continue
			}
			d := lin[j]
			j += len(op.slots)
			shape := []int{d.M, d.K}
			if d.Kind == corr.KindConvFixedB {
				shape = []int{d.Conv.N, d.Conv.InC, d.Conv.H, d.Conv.W}
			}
			x := mpc.NewShare(shape...)
			if id == 1 {
				vals := make([]float64, x.Len())
				rng.New(uint64(k)).FillNorm(vals, 0.5)
				x.V = p.EncodeTensor(vals)
			}
			ys, err := e.linear(op, x)
			if err != nil {
				return err
			}
			for _, y := range ys {
				outs[id] = append(outs[id], slices.Clone(y.V))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestBoundLinearOpShares runs every linear op of the three demo
// programs — the stem and body convs, the downsampling residuals'
// shared-mask head pairs and the FC head — at 1 and 16 rows on each feed:
// both parties' output shares must be bit-identical, head for head, to
// the live dealer's.
func TestBoundLinearOpShares(t *testing.T) {
	for _, class := range bindClasses {
		prog, err := Compile(trainedDemoModel(t, class).Net)
		if err != nil {
			t.Fatal(err)
		}
		shared, fc := 0, 0
		for _, op := range prog.Ops {
			if op.sharesHead() {
				shared++
			}
			for _, s := range op.slots {
				if prog.weights[s].kind == headFC {
					fc++
				}
			}
		}
		if shared == 0 || fc == 0 {
			t.Fatalf("%s: %d shared-mask ops and %d FC heads; the suite needs both", class, shared, fc)
		}
		for _, n := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/N=%d", class, n), func(t *testing.T) {
				live := linearOpShares(t, prog, n, "live")
				for _, feed := range linearFeeds[1:] {
					got := linearOpShares(t, prog, n, feed)
					for id := range got {
						if len(got[id]) != len(live[id]) {
							t.Fatalf("%s: party %d ran %d heads, live %d", feed, id, len(got[id]), len(live[id]))
						}
						for h := range got[id] {
							if !slices.Equal(got[id][h], live[id][h]) {
								t.Fatalf("%s: party %d head %d output share differs from the live dealer's", feed, id, h)
							}
						}
					}
				}
			})
		}
	}
}

// plainProvider hides a provider's binding, so its party-1 stores stay
// unbound (or stay bound to whoever bound them) whatever session
// installs it.
type plainProvider struct{ SourceProvider }

// sessionRun is what a session pair gave over its flushes: party 1's
// logits per flush, and each party's error.
type sessionRun struct {
	logits [][]float64
	errs   [2]error
}

// runSessions brings up a session pair of m under dealer seed seed over a
// pipe, lets install give each its provider, and has party 1 query qs in
// order, stopping at the first error.
func runSessions(m *models.Model, seed uint64, qs []*tensor.Tensor, install func(s *Session, party int) error) sessionRun {
	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	var run sessionRun
	_ = mpc.RunPair([2]io.Closer{c0, c1}, func(id int) (err error) {
		defer func() { run.errs[id] = err }()
		p := mpc.NewParty(id, [2]transport.Conn{c0, c1}[id], seed, seed+uint64(id)+1, fixed.Default64())
		var expect []int
		if id == 0 {
			expect = []int{0, 3, 8, 8}
		}
		s, err := NewSessionOpts(p, m, expect, SessionOptions{})
		if err != nil {
			return err
		}
		if err := install(s, id); err != nil {
			return err
		}
		if id == 0 {
			return s.Serve()
		}
		for _, q := range qs {
			got, err := s.Query(q)
			if err != nil {
				return err
			}
			run.logits = append(run.logits, got)
		}
		return s.Close()
	})
	return run
}

// bindQueries are two different flushes of n demo-geometry rows.
func bindQueries(n int) []*tensor.Tensor {
	r := rng.New(uint64(900 + n))
	return []*tensor.Tensor{tensor.New(n, 3, 8, 8).RandNorm(r, 0.5), tensor.New(n, 3, 8, 8).RandNorm(r, 0.5)}
}

// writeLiveStores writes a store pair for two flushes of prog at shape
// into dir under the canonical names, dealt off the stream a live dealer
// under seed deals, so store-fed flushes are bit-identical to live ones.
func writeLiveStores(t *testing.T, prog *Program, shape []int, seed uint64, dir string) {
	t.Helper()
	tape, err := TraceTape(prog, shape)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1, err := corr.BuildPair(tape.Repeat(2), rng.New(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*corr.Store{s0, s1} {
		if err := s.WriteFile(filepath.Join(dir, corr.FileName(s.Party(), shape))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBoundSessionLogits serves two flushes of each demo program at 1 and
// 16 rows through a session pair, from the live dealer and from one store
// pair fed four ways to party 1: unbound, bound as Preload decodes it
// (UsePreprocessed first, as the gateway does), bound once Preload loaded
// it (UsePreprocessed after), and bound as the first flush's lazy SourceFor
// decodes it. Party 0 preloads its store as the vendor does. Every logit
// must be bit-identical to the live dealer's, and every store-fed pair
// must drain its store.
func TestBoundSessionLogits(t *testing.T) {
	const seed = 4411
	for _, class := range bindClasses {
		m := trainedDemoModel(t, class)
		prog, err := Compile(m.Net)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/N=%d", class, n), func(t *testing.T) {
				shape := []int{n, 3, 8, 8}
				qs := bindQueries(n)
				live := runSessions(m, seed, qs, func(*Session, int) error { return nil })
				if live.errs != [2]error{} {
					t.Fatalf("live: %v", live.errs)
				}
				for _, feed := range []string{"unbound", "bound-preload", "bound-after-load", "bound-lazy"} {
					dir := t.TempDir()
					writeLiveStores(t, prog, shape, seed, dir)
					dps := [2]*DirProvider{NewDirProvider(dir), NewDirProvider(dir)}
					got := runSessions(m, seed, qs, func(s *Session, party int) error {
						dp := dps[party]
						switch {
						case party == 0 || feed == "bound-after-load":
							if err := dp.Preload(party); err != nil {
								return err
							}
							s.UsePreprocessed(dp)
						case feed == "unbound":
							s.UsePreprocessed(plainProvider{dp})
							return dp.Preload(1)
						case feed == "bound-preload":
							s.UsePreprocessed(dp)
							return dp.Preload(1)
						default:
							s.UsePreprocessed(dp)
						}
						return nil
					})
					if got.errs != [2]error{} {
						t.Fatalf("%s: %v", feed, got.errs)
					}
					for f := range qs {
						if !slices.Equal(bitsOf(got.logits[f]), bitsOf(live.logits[f])) {
							t.Errorf("%s: flush %d logits differ from the live dealer's", feed, f)
						}
					}
					for party, dp := range dps {
						src, err := dp.SourceFor(party, shape)
						if err != nil {
							t.Fatal(err)
						}
						st := src.(*corr.Store)
						if st.Remaining() != 0 {
							t.Errorf("%s: party %d store has %d correlations left, want 0", feed, party, st.Remaining())
						}
						if bound := st.Binder() != nil; bound != (party == 1 && feed != "unbound") {
							t.Errorf("%s: party %d store bound = %v", feed, party, bound)
						}
					}
				}
			})
		}
	}
}

// TestBoundStoreStaleGuard binds a store directory to one session and
// hands its party-1 store to sessions that fixed other weights: a revived
// generation (another dealer seed) installing the same DirProvider, which
// refuses a second session, and another model (the same seed, the
// untrained demo backbone) handed the bound store itself. Either way the
// first flush must fail on both parties — party 1 naming the bound
// session, party 0 its peer's refusal — before any protocol data moves.
func TestBoundStoreStaleGuard(t *testing.T) {
	const seed = 4412
	m := trainedDemoModel(t, "x2-avg")
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	shape := []int{1, 3, 8, 8}
	dir := t.TempDir()
	writeLiveStores(t, prog, shape, seed, dir)
	dp := NewDirProvider(dir)
	preload0 := func(s *Session) error {
		dp0 := NewDirProvider(dir)
		s.UsePreprocessed(dp0)
		return dp0.Preload(0)
	}
	qs := bindQueries(1)[:1]
	first := runSessions(m, seed, qs, func(s *Session, party int) error {
		if party == 0 {
			return preload0(s)
		}
		s.UsePreprocessed(dp)
		return dp.Preload(1)
	})
	if first.errs != [2]error{} {
		t.Fatalf("the binding session: %v", first.errs)
	}
	for _, c := range []struct {
		name string
		m    *models.Model
		seed uint64
		p    SourceProvider
		want string
	}{
		{"revived-generation", m, seed + 1, dp, "bound to another session (dealer seed 0x113c)"},
		{"another-model", demoModel(t), seed, plainProvider{dp}, "bound to another session's fixed weights (dealer seed 0x113c)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := runSessions(c.m, c.seed, qs, func(s *Session, party int) error {
				if party == 0 {
					return preload0(s)
				}
				s.UsePreprocessed(c.p)
				return nil
			})
			if err := run.errs[1]; err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("party 1: %v, want an error containing %q", err, c.want)
			}
			if err := run.errs[0]; err == nil || !strings.Contains(err.Error(), "peer failed to resolve its correlation source") {
				t.Errorf("party 0: %v, want its peer's refusal", err)
			}
		})
	}
}

// BenchmarkStoreLoad times a served store's life before its first flush
// at x2_k16_loop's geometry — the x2-avg demo program, 16 rows, 136
// flushes — phase by phase: WriteStorePair (trace, deal, write both
// files), party 0's Preload, party 1's unbound Preload then its Bind
// (UsePreprocessed after Preload), and party 1's Preload bound as it
// decodes (UsePreprocessed first, the gateway's order). Each phase is
// reported in ms per op.
func BenchmarkStoreLoad(b *testing.B) {
	const flushes = 136
	prog := demoProgram(b)
	shape := []int{16, 3, 8, 8}
	tape, err := TraceTape(prog, shape)
	if err != nil {
		b.Fatal(err)
	}
	ep := newEnginePair(b, prog)
	binder, err := ep.ps[1].NewBinder(ep.engs[1].fixedWs)
	if err != nil {
		b.Fatal(err)
	}
	var phases [5]time.Duration
	lap := func(i int, t0 time.Time) time.Time {
		now := time.Now()
		phases[i] += now.Sub(t0)
		return now
	}
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		t0 := time.Now()
		if _, err := WriteStorePair(tape, servedDealerSeed, shape, flushes, dir); err != nil {
			b.Fatal(err)
		}
		t0 = lap(0, t0)
		if err := NewDirProvider(dir).Preload(0); err != nil {
			b.Fatal(err)
		}
		t0 = lap(1, t0)
		dp := NewDirProvider(dir)
		if err := dp.Preload(1); err != nil {
			b.Fatal(err)
		}
		t0 = lap(2, t0)
		if err := dp.bind(binder); err != nil {
			b.Fatal(err)
		}
		t0 = lap(3, t0)
		dp = NewDirProvider(dir)
		if err := dp.bind(binder); err != nil {
			b.Fatal(err)
		}
		if err := dp.Preload(1); err != nil {
			b.Fatal(err)
		}
		lap(4, t0)
	}
	for i, name := range []string{"write", "p0-load", "p1-load", "p1-bind", "p1-bound-load"} {
		b.ReportMetric(float64(phases[i].Microseconds())/1e3/float64(b.N), name+"-ms/op")
	}
}

// takeRecorder is a bound store that keeps every FixedB z it hands party
// 1 — the op's output share Y₁ — with a copy taken as the op takes it,
// before any op has read it.
type takeRecorder struct {
	*corr.Store
	zs, snap [][]uint64
}

func (r *takeRecorder) keep(z []uint64) {
	r.zs = append(r.zs, z)
	r.snap = append(r.snap, slices.Clone(z))
}

func (r *takeRecorder) TakeConvFixedB(mask int, d mpc.ConvDims) ([]uint64, []uint64, error) {
	a, z, err := r.Store.TakeConvFixedB(mask, d)
	r.keep(z)
	return a, z, err
}

func (r *takeRecorder) TakeConvFixedBShared(mask int, d mpc.ConvDims) ([]uint64, error) {
	z, err := r.Store.TakeConvFixedBShared(mask, d)
	r.keep(z)
	return z, err
}

func (r *takeRecorder) TakeMatMulFixedB(mask, m, k, n int) ([]uint64, []uint64, error) {
	a, z, err := r.Store.TakeMatMulFixedB(mask, m, k, n)
	r.keep(z)
	return a, z, err
}

func (r *takeRecorder) TakeMatMulFixedBShared(mask, m, k, n int) ([]uint64, error) {
	z, err := r.Store.TakeMatMulFixedBShared(mask, m, k, n)
	r.keep(z)
	return z, err
}

// TestBoundOutputsNeverWritten pins what handing party 1's bound Y₁ over
// as its linear outputs relies on: no op of a flush writes its inputs, so
// every bound store word a flush hands out still holds, after the flush,
// what the store held when its op took it. It serves one flush of each
// demo program at 1 and 16 rows off a bound party-1 store, compares every
// Y₁ word for word with its copy, and both parties' output shares with
// the same flush off the unbound stores.
func TestBoundOutputsNeverWritten(t *testing.T) {
	for _, class := range bindClasses {
		prog, err := Compile(trainedDemoModel(t, class).Net)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/N=%d", class, n), func(t *testing.T) {
				x := demoQuery(n)
				want := newEnginePair(t, prog).flush(t, x, flushStores(t, prog, x.Shape, 90))
				ep := newEnginePair(t, prog)
				stores := flushStores(t, prog, x.Shape, 90)
				b, err := ep.ps[1].NewBinder(ep.engs[1].fixedWs)
				if err != nil {
					t.Fatal(err)
				}
				if err := stores[1].Bind(b); err != nil {
					t.Fatal(err)
				}
				rec := &takeRecorder{Store: stores[1]}
				var got [2]mpc.Share
				err = mpc.RunPair(ep.links, func(id int) error {
					p := ep.ps[id]
					in := mpc.NewShare(x.Shape...)
					p.Source = stores[0]
					if id == 1 {
						p.Source = rec
						in.V = p.EncodeTensor(x.Data)
					}
					var err error
					got[id], err = ep.engs[id].Infer(in)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.zs) == 0 {
					t.Fatal("party 1 took no FixedB correlation")
				}
				for i, z := range rec.zs {
					for j, w := range rec.snap[i] {
						if z[j] != w {
							t.Fatalf("bound Y₁ %d of %d: word %d is %#x after the flush, the store held %#x", i, len(rec.zs), j, z[j], w)
						}
					}
				}
				for id := range got {
					if !slices.Equal(got[id].V, want[id].V) {
						t.Fatalf("party %d: output share off the bound store differs from the unbound stores'", id)
					}
				}
			})
		}
	}
}
