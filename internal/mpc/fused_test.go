package mpc_test

import (
	"fmt"
	"sync"
	"testing"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// Suite for the fused epilogues: LinearFixedW with a destination and a bias,
// and X2ActTo, each finish in one pass what used to be a chain of ops. Each
// is pinned share for share, on both parties, against that chain run in a
// fresh session under the same seeds, so both runs draw the same input
// masks and correlations — from the live dealer, and from a store dealt
// for the op's tape.

// sentinel fills a destination before a fused op runs, so a word the op
// fails to write shows up as a mismatch.
const sentinel = 0xdeadbeefcafef00d

// pairShares runs op on both parties of a fresh session under seed and
// returns each party's output share words. With tape non-nil the op's
// correlations come from a store pair dealt for it, installed once setup
// (op's own prologue, which consumes none) is done: op calls install.
func pairShares(t *testing.T, seed uint64, tape corr.Tape, op func(p *mpc.Party, install func()) ([][]uint64, error)) [2][][]uint64 {
	t.Helper()
	var sources [2]mpc.CorrelationSource
	if tape != nil {
		s0, s1, err := corr.BuildPair(tape, rng.New(seed+1), seed)
		if err != nil {
			t.Fatal(err)
		}
		sources = [2]mpc.CorrelationSource{s0, s1}
	}
	var mu sync.Mutex
	var out [2][][]uint64
	err := mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
		install := func() {
			if src := sources[p.ID]; src != nil {
				p.Source = src
			}
		}
		got, err := op(p, install)
		mu.Lock()
		out[p.ID] = got
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameShares fails t where the fused shares differ from the reference.
func sameShares(t *testing.T, fused, ref [2][][]uint64) {
	t.Helper()
	for id := range fused {
		if len(fused[id]) != len(ref[id]) {
			t.Fatalf("party %d: %d fused outputs, %d reference", id, len(fused[id]), len(ref[id]))
		}
		for i := range fused[id] {
			if len(fused[id][i]) != len(ref[id][i]) {
				t.Fatalf("party %d output %d: %d fused words, %d reference", id, i, len(fused[id][i]), len(ref[id][i]))
			}
			for j, v := range fused[id][i] {
				if v != ref[id][i][j] {
					t.Fatalf("party %d output %d share[%d]: fused %#x, unfused %#x", id, i, j, v, ref[id][i][j])
				}
			}
		}
	}
}

// feeds names the two ways a test feeds correlations.
var feeds = []struct {
	name  string
	store bool
}{{"live", false}, {"store", true}}

// TestLinearFixedWFusedMatchesUnfused: LinearFixedW with Out and Bias ≡
// LinearFixedW without them followed by AddBias (convolutions) or
// AddBiasVec (products), for a conv, a depthwise conv, an FC layer and a
// two-head op, at N = 1 and 16; the shares land in the given destinations.
func TestLinearFixedWFusedMatchesUnfused(t *testing.T) {
	type head struct {
		conv   func(n int) *mpc.ConvDims // nil: an FC layer, W k×n
		wShape []int                     // FC only; a conv's is KLen
		ch     int                       // output channels (bias length)
	}
	dense := func(n int) *mpc.ConvDims {
		return &mpc.ConvDims{N: n, InC: 3, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	}
	dw := func(n int) *mpc.ConvDims {
		return &mpc.ConvDims{N: n, InC: 4, H: 8, W: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}
	}
	body := func(n int) *mpc.ConvDims {
		return &mpc.ConvDims{N: n, InC: 4, H: 8, W: 8, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	}
	short := func(n int) *mpc.ConvDims {
		return &mpc.ConvDims{N: n, InC: 4, H: 8, W: 8, OutC: 6, KH: 1, KW: 1, Stride: 2}
	}
	cases := []struct {
		name   string
		xShape func(n int) []int
		heads  []head
	}{
		{"conv", func(n int) []int { return []int{n, 3, 8, 8} }, []head{{conv: dense, ch: 4}}},
		{"depthwise", func(n int) []int { return []int{n, 4, 8, 8} }, []head{{conv: dw, ch: 4}}},
		{"fc", func(n int) []int { return []int{n, 8} }, []head{{wShape: []int{8, 5}, ch: 5}}},
		{"two-head", func(n int) []int { return []int{n, 4, 8, 8} }, []head{{conv: body, ch: 6}, {conv: short, ch: 6}}},
	}
	for _, c := range cases {
		for _, n := range []int{1, 16} {
			for _, src := range feeds {
				t.Run(fmt.Sprintf("%s/N=%d/%s", c.name, n, src.name), func(t *testing.T) {
					r := rng.New(uint64(3100 + n))
					xShape := c.xShape(n)
					xVals := make([]float64, prod(xShape))
					r.FillNorm(xVals, 1)
					wVals, bias := make([][]float64, len(c.heads)), make([][]float64, len(c.heads))
					var tape corr.Tape
					for i, h := range c.heads {
						d := corr.Demand{Mask: i, Shared: i > 0}
						if h.conv != nil {
							d.Kind, d.Conv = corr.KindConvFixedB, *h.conv(n)
							wVals[i] = make([]float64, d.Conv.KLen())
						} else {
							d.Kind, d.M, d.K, d.P = corr.KindMatMulFixedB, n, h.wShape[0], h.wShape[1]
							wVals[i] = make([]float64, prod(h.wShape))
						}
						r.FillNorm(wVals[i], 0.5)
						bias[i] = make([]float64, h.ch)
						r.FillNorm(bias[i], 0.3)
						tape = append(tape, d)
					}
					if !src.store {
						tape = nil
					}
					run := func(fused bool) [2][][]uint64 {
						return pairShares(t, 3200, tape, func(p *mpc.Party, install func()) ([][]uint64, error) {
							var encX []uint64
							if p.ID == 1 {
								encX = p.EncodeTensor(xVals)
							}
							x, err := p.ShareInput(1, encX, xShape...)
							if err != nil {
								return nil, err
							}
							ops := make([]mpc.FixedWOp, len(c.heads))
							for i, h := range c.heads {
								var enc []uint64
								if p.ID == 0 {
									enc = p.EncodeTensor(wVals[i])
								}
								wShape := h.wShape
								if h.conv != nil {
									wShape = []int{len(wVals[i])}
								}
								w, err := p.ShareInput(0, enc, wShape...)
								if err != nil {
									return nil, err
								}
								fw, err := p.OpenFixedW(i, w)
								if err != nil {
									return nil, err
								}
								ops[i] = mpc.FixedWOp{W: w, FW: fw}
								if h.conv != nil {
									ops[i].Conv = h.conv(n)
								}
								if fused {
									var outLen int
									if h.conv != nil {
										outLen = h.conv(n).OutLen()
									} else {
										outLen = n * h.wShape[1]
									}
									ops[i].Out = make([]uint64, outLen)
									for j := range ops[i].Out {
										ops[i].Out[j] = sentinel
									}
									ops[i].Bias = p.EncodeTensor(bias[i])
								}
							}
							install()
							ys, err := p.LinearFixedW(x, ops...)
							if err != nil {
								return nil, err
							}
							words := make([][]uint64, len(ys))
							for i, y := range ys {
								if fused {
									if &y.V[0] != &ops[i].Out[0] {
										return nil, fmt.Errorf("head %d: output share does not hold the given destination", i)
									}
								} else if c.heads[i].conv != nil {
									y, err = p.AddBias(y, bias[i])
								} else {
									y, err = p.AddBiasVec(y, bias[i])
								}
								if err != nil {
									return nil, err
								}
								words[i] = y.V
							}
							return words, nil
						})
					}
					sameShares(t, run(true), run(false))
				})
			}
		}
	}
}

// TestX2ActToMatchesUnfused: X2ActTo ≡ Square, then c1·sq + c2·x, then
// one truncation, then the bias on party 0, at N = 1 and 16; the shares
// land in the given destination. X2Act, its allocating form, agrees too.
func TestX2ActToMatchesUnfused(t *testing.T) {
	prm := mpc.X2ActParams{W1: 0.3, W2: 0.9, B: -0.2, Scale: 0.7}
	for _, n := range []int{1, 16} {
		for _, src := range feeds {
			t.Run(fmt.Sprintf("N=%d/%s", n, src.name), func(t *testing.T) {
				shape := []int{n, 4, 8, 8}
				xVals := make([]float64, prod(shape))
				rng.New(uint64(3300+n)).FillNorm(xVals, 1)
				var tape corr.Tape
				if src.store {
					tape = corr.Tape{{Kind: corr.KindSquare, N: len(xVals)}}
				}
				run := func(form string) [2][][]uint64 {
					return pairShares(t, 3400, tape, func(p *mpc.Party, install func()) ([][]uint64, error) {
						var encX []uint64
						if p.ID == 1 {
							encX = p.EncodeTensor(xVals)
						}
						x, err := p.ShareInput(1, encX, shape...)
						if err != nil {
							return nil, err
						}
						install()
						var y mpc.Share
						switch form {
						case "fused":
							y = mpc.NewShare(shape...)
							for i := range y.V {
								y.V[i] = sentinel
							}
							err = p.X2ActTo(y, x, prm)
						case "wrapper":
							y, err = p.X2Act(x, prm)
						default:
							var sq mpc.Share
							if sq, err = p.Square(x); err != nil {
								return nil, err
							}
							c1 := p.Codec.Encode(prm.Scale * prm.W1)
							c2 := p.Codec.Encode(prm.Scale * prm.W2)
							y = p.Add(p.ScalePublicRaw(sq, c1), p.ScalePublicRaw(x, c2))
							p.TruncateInPlace(&y)
							bias := make([]uint64, y.Len())
							for i := range bias {
								bias[i] = p.Codec.Encode(prm.Scale * prm.B)
							}
							y = p.AddPublic(y, bias)
						}
						return [][]uint64{y.V}, err
					})
				}
				ref := run("unfused")
				sameShares(t, run("fused"), ref)
				sameShares(t, run("wrapper"), ref)
			})
		}
	}
}

// TestAvgPool2DToMatchesUnfused: AvgPool2DTo ≡ the windows' local sums,
// then ScalePublic by 1/(kh·kw), for a strided window and the whole map
// (global average pooling); the shares land in the given destination.
func TestAvgPool2DToMatchesUnfused(t *testing.T) {
	shape := []int{3, 4, 6, 6}
	xVals := make([]float64, prod(shape))
	rng.New(3500).FillNorm(xVals, 1)
	for _, k := range [][2]int{{2, 2}, {6, 1}} { // window, stride
		t.Run(fmt.Sprintf("k=%d", k[0]), func(t *testing.T) {
			oh := (shape[2]-k[0])/k[1] + 1
			run := func(fused bool) [2][][]uint64 {
				return pairShares(t, 3600, nil, func(p *mpc.Party, _ func()) ([][]uint64, error) {
					var encX []uint64
					if p.ID == 1 {
						encX = p.EncodeTensor(xVals)
					}
					x, err := p.ShareInput(1, encX, shape...)
					if err != nil {
						return nil, err
					}
					y := mpc.NewShare(shape[0], shape[1], oh, oh)
					if fused {
						for i := range y.V {
							y.V[i] = sentinel
						}
						return [][]uint64{y.V}, p.AvgPool2DTo(y, x, k[0], k[0], k[1])
					}
					h := shape[2]
					for i := range y.V {
						plane, oy, ox := i/(oh*oh), i/oh%oh, i%oh
						for ky := 0; ky < k[0]; ky++ {
							for kx := 0; kx < k[0]; kx++ {
								y.V[i] += x.V[plane*h*h+(oy*k[1]+ky)*h+ox*k[1]+kx]
							}
						}
					}
					return [][]uint64{p.ScalePublic(y, 1/float64(k[0]*k[0])).V}, nil
				})
			}
			sameShares(t, run(true), run(false))
		})
	}
}
