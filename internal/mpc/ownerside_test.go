package mpc_test

import (
	"fmt"
	"sync"
	"testing"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
)

// Suite for the owner-side linear protocol of the FixedW ops, fed from
// corr stores as a provisioned session is (an external test package, since
// corr imports mpc): party 1 sends its masked activation one way, receives
// nothing, and its output share is a function of its store entry and the
// public F alone.

// convShape maps the mpc geometry onto the kernel package's conv shape.
func convShape(d mpc.ConvDims) kernel.ConvShape {
	return kernel.ConvShape{
		N: d.N, InC: d.InC, H: d.H, W: d.W,
		OutC: d.OutC, KH: d.KH, KW: d.KW,
		Stride: d.Stride, Pad: d.Pad, Groups: d.Groups,
	}
}

// fixedWCase is one FixedW op: its demand, the weight and input shapes it
// shares, the plain bilinear map party 1's share is recomputed with, and
// the store take that hands out its pair.
type fixedWCase struct {
	name   string
	d      corr.Demand
	wShape []int
	xShape []int
	apply  func(out, a, b []uint64)
	take   func(s *corr.Store) (a, z []uint64, err error)
}

func fixedWCases() []fixedWCase {
	dims := mpc.ConvDims{N: 2, InC: 3, H: 5, W: 5, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const m, k, n = 3, 6, 5
	return []fixedWCase{
		{
			name:   "conv",
			d:      corr.Demand{Kind: corr.KindConvFixedB, Mask: 2, Conv: dims},
			wShape: []int{dims.OutC, dims.InC, dims.KH, dims.KW},
			xShape: []int{dims.N, dims.InC, dims.H, dims.W},
			apply:  func(out, a, b []uint64) { kernel.Conv2D(out, a, b, convShape(dims)) },
			take:   func(s *corr.Store) ([]uint64, []uint64, error) { return s.TakeConvFixedB(2, dims) },
		},
		{
			name:   "matmul",
			d:      corr.Demand{Kind: corr.KindMatMulFixedB, Mask: 5, M: m, K: k, P: n},
			wShape: []int{k, n},
			xShape: []int{m, k},
			apply:  func(out, a, b []uint64) { kernel.MatMul(out, a, b, m, k, n) },
			take:   func(s *corr.Store) ([]uint64, []uint64, error) { return s.TakeMatMulFixedB(5, m, k, n) },
		},
	}
}

// TestFixedWOneWayWire pins the wire shape and the one-sidedness of both
// FixedW ops. Per op, party 1 sends exactly one frame of len(x) words and
// receives none; party 0 sends none and receives that one. Party 1's output
// share is its truncated a∘F + z₁, recomputed here from a second copy of
// its store entry, so it owes nothing to party 0's input or traffic.
func TestFixedWOneWayWire(t *testing.T) {
	const dealerSeed, streamSeed = 4711, 90210
	codec := fixed.Default64()
	for _, c := range fixedWCases() {
		t.Run(c.name, func(t *testing.T) {
			tape := corr.Tape{c.d}
			s0, s1, err := corr.BuildPair(tape, rng.New(streamSeed), dealerSeed)
			if err != nil {
				t.Fatal(err)
			}
			ref0, ref1, err := corr.BuildPair(tape, rng.New(streamSeed), dealerSeed)
			if err != nil {
				t.Fatal(err)
			}
			if a0, _, err := c.take(ref0); err != nil || a0 != nil {
				t.Fatalf("party 0's store entry must carry no activation mask, got %d words (err %v)", len(a0), err)
			}
			a, z1, err := c.take(ref1)
			if err != nil {
				t.Fatal(err)
			}
			stores := [2]*corr.Store{s0, s1}
			r := rng.New(4712)
			wVals, xVals := make([]float64, prod(c.wShape)), make([]float64, prod(c.xShape))
			r.FillNorm(wVals, 0.5)
			r.FillNorm(xVals, 1)
			var (
				mu    sync.Mutex
				wire  [2]obs.WireTotals
				out1  []uint64
				f     []uint64
				xLen  int
				plain []uint64
			)
			err = mpc.RunProtocol(dealerSeed, codec, func(p *mpc.Party) error {
				var encW, encX []uint64
				if p.ID == 0 {
					encW = p.EncodeTensor(wVals)
				} else {
					encX = p.EncodeTensor(xVals)
				}
				w, err := p.ShareInput(0, encW, c.wShape...)
				if err != nil {
					return err
				}
				x, err := p.ShareInput(1, encX, c.xShape...)
				if err != nil {
					return err
				}
				fw, err := p.OpenFixedW(c.d.Mask, w)
				if err != nil {
					return err
				}
				p.Source = stores[p.ID]
				conn := obs.InstrumentConn(p.Conn, nil)
				p.Conn = conn
				var y mpc.Share
				if c.d.Kind == corr.KindConvFixedB {
					y, err = p.Conv2DFixedW(x, w, fw, c.d.Conv)
				} else {
					y, err = p.MatMulFixedW(x, w, fw)
				}
				if err != nil {
					return err
				}
				totals := conn.Totals()
				rec, err := p.Reveal(y)
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				wire[p.ID] = totals
				if p.ID == 1 {
					out1, f, xLen, plain = y.V, fw.F, x.Len(), rec
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := obs.WireTotals{SentFrames: 1, SentBytes: int64(8 * xLen)}
			if wire[1] != want {
				t.Errorf("party 1 wire %+v, want exactly one %d-word frame sent and nothing received", wire[1], xLen)
			}
			want = obs.WireTotals{RecvFrames: 1, RecvBytes: int64(8 * xLen)}
			if wire[0] != want {
				t.Errorf("party 0 wire %+v, want exactly one %d-word frame received and nothing sent", wire[0], xLen)
			}
			r1 := make([]uint64, len(out1))
			c.apply(r1, a, f)
			for i := range r1 {
				r1[i] += z1[i]
			}
			got := mpc.Share{V: r1, Shape: []int{len(r1)}}
			(&mpc.Party{ID: 1, Codec: codec}).TruncateInPlace(&got)
			for i := range r1 {
				if out1[i] != got.V[i] {
					t.Fatalf("party 1 share[%d] = %#x, its store entry gives trunc(a∘F + z₁) = %#x", i, out1[i], got.V[i])
				}
			}
			// The shares still reconstruct the plain product.
			wEnc, xEnc := codec.EncodeSlice(wVals, nil), codec.EncodeSlice(xVals, nil)
			ref := make([]uint64, len(plain))
			c.apply(ref, xEnc, wEnc)
			for i := range ref {
				if d := int64(plain[i] - uint64(int64(ref[i])>>codec.FracBits)); d < -1 || d > 1 {
					t.Fatalf("reconstructed elem %d off the plain product by %d ULP", i, d)
				}
			}
		})
	}
}

func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// BenchmarkConv2DFixedW times one owner-side Conv2DFixedW, both parties
// over RunProtocol, at the largest conv the x2_k16_loop workload serves:
// the demo backbone's stage-1 3×3 conv (4→4 channels on 8×8 maps) at 16
// rows. Weight sharing and the F = W−b opening are untimed. The op is fed
// from a pool of store-dealt pairs replayed round robin, so store building
// stays out of the loop and memory stays flat however large b.N grows;
// only a benchmark may repeat activation masks like this.
func BenchmarkConv2DFixedW(b *testing.B) {
	dims := mpc.ConvDims{N: 16, InC: 4, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const seed, pool = 4100, 32
	tape := corr.Tape{{Kind: corr.KindConvFixedB, Conv: dims}}.Repeat(pool)
	s0, s1, err := corr.BuildPair(tape, rng.New(seed+1), seed)
	if err != nil {
		b.Fatal(err)
	}
	var sources [2]*replaySource
	for id, s := range []*corr.Store{s0, s1} {
		src := &replaySource{}
		for range pool {
			a, z, err := s.TakeConvFixedB(0, dims)
			if err != nil {
				b.Fatal(err)
			}
			src.a, src.z = append(src.a, a), append(src.z, z)
		}
		sources[id] = src
	}
	r := rng.New(seed + 2)
	wVals, xVals := make([]float64, dims.KLen()), make([]float64, dims.InLen())
	r.FillNorm(wVals, 0.1)
	r.FillNorm(xVals, 1)
	b.ReportAllocs()
	err = mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
		var encW, encX []uint64
		if p.ID == 0 {
			encW = p.EncodeTensor(wVals)
		} else {
			encX = p.EncodeTensor(xVals)
		}
		w, err := p.ShareInput(0, encW, dims.KLen())
		if err != nil {
			return err
		}
		x, err := p.ShareInput(1, encX, dims.N, dims.InC, dims.H, dims.W)
		if err != nil {
			return err
		}
		fw, err := p.OpenFixedW(0, w)
		if err != nil {
			return err
		}
		p.Source = sources[p.ID]
		if p.ID == 1 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if _, err := p.Conv2DFixedW(x, w, fw, dims); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// replaySource serves TakeConvFixedB from a fixed pool, round robin; every
// other take panics on the nil embedded source.
type replaySource struct {
	mpc.CorrelationSource
	a, z [][]uint64
	next int
}

func (s *replaySource) TakeConvFixedB(int, mpc.ConvDims) (a, z []uint64, err error) {
	i := s.next % len(s.z)
	s.next++
	return s.a[i], s.z[i], nil
}
