package pi

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// Suite for the flush workspace: Infer writes every activation into
// buffers the engine keeps from flush to flush, so the suite pins that a
// warm engine computes exactly what a fresh one does at every flush size,
// that the caller's result never aliases a buffer the next flush
// overwrites, and what a warm flush still allocates.

// servedDealerSeed seeds the engine pairs of this suite; a flush's stores
// fix its fixed masks under it.
const servedDealerSeed = 4343

// enginePair is a set-up engine per party over one loopback link.
type enginePair struct {
	engs  [2]*Engine
	ps    [2]*mpc.Party
	links [2]io.Closer
}

// newEnginePair brings up both parties' engines for prog over an
// in-memory pipe.
func newEnginePair(t testing.TB, prog *Program) *enginePair {
	t.Helper()
	c0, c1 := transport.Pipe()
	return newEnginePairOver(t, prog, c0, c1)
}

// newEnginePairOver brings up both parties' engines for prog over the
// link c0–c1, which it closes when the test ends.
func newEnginePairOver(t testing.TB, prog *Program, c0, c1 transport.Conn) *enginePair {
	t.Helper()
	ep := &enginePair{links: [2]io.Closer{c0, c1}}
	for id, c := range []transport.Conn{c0, c1} {
		ep.ps[id] = mpc.NewParty(id, c, servedDealerSeed, uint64(500+id), fixed.Default64())
		ep.engs[id] = NewEngine(prog)
	}
	t.Cleanup(func() { c0.Close(); c1.Close() })
	if err := mpc.RunPair(ep.links, func(id int) error { return ep.engs[id].Setup(ep.ps[id]) }); err != nil {
		t.Fatal(err)
	}
	return ep
}

// loopbackTCP returns the two ends of a TCP connection on 127.0.0.1.
func loopbackTCP(t testing.TB) (*transport.TCPConn, *transport.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			nc = nil
		}
		accepted <- nc
	}()
	c0, err := transport.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := <-accepted
	if nc == nil {
		c0.Close()
		t.Fatal("loopback accept failed")
	}
	return c0, transport.NewTCPConn(nc)
}

// flushStores deals both parties' stores for one flush of prog at shape,
// off the stream seeded by seed.
func flushStores(t testing.TB, prog *Program, shape []int, seed uint64) [2]*corr.Store {
	t.Helper()
	tape, err := TraceTape(prog, shape)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1, err := corr.BuildPair(tape, rng.New(seed), servedDealerSeed)
	if err != nil {
		t.Fatal(err)
	}
	return [2]*corr.Store{s0, s1}
}

// flush runs one served evaluation of x off stores, as a Session does:
// party 1's input share is the encoded query, party 0's zeros. It returns
// each party's output share.
func (ep *enginePair) flush(t testing.TB, x *tensor.Tensor, stores [2]*corr.Store) [2]mpc.Share {
	t.Helper()
	var outs [2]mpc.Share
	err := mpc.RunPair(ep.links, func(id int) error {
		p := ep.ps[id]
		p.Source = stores[id]
		in := mpc.NewShare(x.Shape...)
		if id == 1 {
			in.V = p.EncodeTensor(x.Data)
		}
		var err error
		outs[id], err = ep.engs[id].Infer(in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// demoQuery is an n-row query of the demo backbone's 3×8×8 geometry.
func demoQuery(n int) *tensor.Tensor {
	x := tensor.New(n, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = float64(i%11)/11 - 0.5
	}
	return x
}

// warmFlushAllocBound caps, per demo program class, what both parties
// together allocate over one warm 16-row flush on two kernel workers, the
// output copy and the link's frames included. Received frames come from
// the transport's free list and go back to it once read
// (transport.Release), and each op writes the engine's workspace, so what
// remains is the query encode and party 0's zero input share (~24 KB
// each), the reveal's output, the Exchange goroutines and small per-op
// slices: x2-avg reads ~107,000 B over the in-memory pipe and over
// loopback TCP, and mixed ~1,993,000 B, nearly all of it its ReLU and
// max-pool comparisons' bit shares and outputs. The bounds are x2-avg's
// reading plus ~25 % and mixed's plus ~10 %. A link that allocates its
// frames again fails both (x2-avg's frames are ~870 KB, mixed's ~2.1 MB:
// x2-avg read 979,424 B and mixed 4,133,424 B before the free list); so
// does mixed's selects keeping their frames (~296 KB) or x2-avg's eight
// residual adds, its smallest op family, allocating their outputs again
// (~123 KB); x2-avg read 3,769,312 B when every op allocated its output.
var warmFlushAllocBound = map[string]uint64{"x2-avg": 135_000, "mixed": 2_200_000}

func TestEngineWorkspace(t *testing.T) {
	for _, class := range []string{"x2-avg", "mixed"} {
		t.Run(class, func(t *testing.T) {
			prog, err := Compile(trainedDemoModel(t, class).Net)
			if err != nil {
				t.Fatal(err)
			}
			// One engine pair serves the flushes in order, each off its
			// own stores; a fresh pair then serves each flush alone off
			// an identical store pair, and the two must agree share for
			// share.
			rows := []int{16, 3, 16, 1}
			warm := newEnginePair(t, prog)
			var outs [][2]mpc.Share
			var words [][2][]uint64
			for f, n := range rows {
				x := demoQuery(n)
				o := warm.flush(t, x, flushStores(t, prog, x.Shape, uint64(70+f)))
				outs = append(outs, o)
				words = append(words, [2][]uint64{append([]uint64(nil), o[0].V...), append([]uint64(nil), o[1].V...)})
			}
			for f, n := range rows {
				x := demoQuery(n)
				fresh := newEnginePair(t, prog).flush(t, x, flushStores(t, prog, x.Shape, uint64(70+f)))
				for id := range 2 {
					// The warm result must still hold what Infer returned:
					// later flushes never write into it.
					for i, w := range words[f][id] {
						if outs[f][id].V[i] != w {
							t.Fatalf("flush %d (N=%d) party %d: result word %d changed to %#x after later flushes, Infer returned %#x", f, n, id, i, outs[f][id].V[i], w)
						}
						if fresh[id].V[i] != w {
							t.Fatalf("flush %d (N=%d) party %d: warm engine share[%d] = %#x, a fresh engine gives %#x", f, n, id, i, w, fresh[id].V[i])
						}
					}
				}
			}
		})
	}
	t.Run("warm-flush-allocs", func(t *testing.T) {
		// Over loopback TCP, x2-avg alone: its allocation is nearly all
		// frames when a link allocates them, so it pins the TCP decoder
		// and encoder as the pipe case pins MemConn.
		for _, tc := range []struct{ link, class string }{{"pipe", "x2-avg"}, {"pipe", "mixed"}, {"tcp", "x2-avg"}} {
			link, class := tc.link, tc.class
			t.Run(link+"/"+class, func(t *testing.T) {
				prog, err := Compile(trainedDemoModel(t, class).Net)
				if err != nil {
					t.Fatal(err)
				}
				var ep *enginePair
				if link == "tcp" {
					c0, c1 := loopbackTCP(t)
					ep = newEnginePairOver(t, prog, c0, c1)
				} else {
					ep = newEnginePair(t, prog)
				}
				x := demoQuery(16)
				ep.flush(t, x, flushStores(t, prog, x.Shape, 80))
				stores := flushStores(t, prog, x.Shape, 81)
				var before, after runtime.MemStats
				withKernelSetting(kernelSetting{"workers=2/lowered", 2, false}, func() {
					runtime.ReadMemStats(&before)
					ep.flush(t, x, stores)
					runtime.ReadMemStats(&after)
				})
				got, bound := after.TotalAlloc-before.TotalAlloc, warmFlushAllocBound[class]
				t.Logf("warm 16-row flush allocated %d B on both parties", got)
				if got > bound {
					t.Errorf("a warm 16-row flush allocated %d B on both parties, bound %d: an op allocates its output, or the link its frames, again", got, bound)
				}
			})
		}
	})
}

// BenchmarkServedFlush times one served flush of the demo backbone's x2-avg
// program (untrained: the cost does not depend on weight values) on a
// loopback session pair, at 1 and 16 rows: shape and source frames, the
// program, and the reveal, party 1 timed. Each flush draws from a store
// pair dealt for it before the timer restarts, so neither dealing nor
// store memory is timed; run it with -benchmem to read what a warm flush
// allocates on both parties.
func BenchmarkServedFlush(b *testing.B) {
	m := demoModel(b)
	prog, err := Compile(m.Net)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			x := demoQuery(n)
			tape, err := TraceTape(prog, x.Shape)
			if err != nil {
				b.Fatal(err)
			}
			c0, c1 := transport.Pipe()
			defer c0.Close()
			defer c1.Close()
			links := [2]io.Closer{c0, c1}
			var sess [2]*Session
			err = mpc.RunPair(links, func(id int) error {
				p := mpc.NewParty(id, []transport.Conn{c0, c1}[id], servedDealerSeed, uint64(600+id), fixed.Default64())
				var err error
				sess[id], err = NewSessionOpts(p, m, []int{0, 3, 8, 8}, SessionOptions{})
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s0, s1, err := corr.BuildPair(tape, rng.New(uint64(i)), servedDealerSeed)
				if err != nil {
					b.Fatal(err)
				}
				sess[0].UsePreprocessed(storePair{s0, s1})
				sess[1].UsePreprocessed(storePair{s0, s1})
				b.StartTimer()
				err = mpc.RunPair(links, func(id int) error {
					if id == 0 {
						_, _, err := sess[0].ServeOne()
						return err
					}
					_, err := sess[1].Query(x)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
