package pi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// This file is the cross-path equivalence suite: for a spread of program
// shapes (plain sequential stacks, residuals with and without projection
// shortcuts, nested residual bodies, depthwise convolutions), activations
// (ReLU and X²act) and pooling choices, it asserts that
//
//	Infer(PackQueries(K queries))  ≡  K sequential Infer calls  ≡  plaintext Forward
//
// within the fixed-point error bound, and that both parties reconstruct
// bit-identical outputs on every path. These are the invariants the
// batched serving pipeline rests on.

// maxAbsDiff returns the largest elementwise |a−b|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// netVariant builds one hand-constructed test network plus its input
// geometry. Weights come from r; BN running stats are warmed by a few
// train-mode forward passes so compilation folds realistic statistics.
type netVariant struct {
	name    string
	hw, inC int
	build   func(r *rng.RNG, hw, inC, classes int) *nn.Network
}

func conv(name string, inC, outC, k, stride, pad int, r *rng.RNG) *nn.Conv2D {
	return nn.NewConv2D(name, tensor.ConvSpec{InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad}, false, r)
}

var netVariants = []netVariant{
	{
		// Plain conv/BN/X²act stack with global average pooling.
		name: "plain-x2-gap", hw: 8, inC: 2,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			return nn.NewNetwork(nn.NewSequential(
				conv("c1", inC, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn1", 4),
				nn.NewX2Act("a1", hw*hw*4),
				conv("c2", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn2", 4),
				nn.NewX2Act("a2", hw*hw*4),
				nn.NewGlobalAvgPool(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 4, classes, r),
			))
		},
	},
	{
		// ReLU path with a max-pooling comparison tournament and an
		// identity-shortcut residual.
		name: "relu-maxpool-residual", hw: 8, inC: 3,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			body := nn.NewSequential(
				conv("rb1", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("rbn1", 4),
				nn.NewReLU(),
				conv("rb2", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("rbn2", 4),
			)
			return nn.NewNetwork(nn.NewSequential(
				conv("stem", inC, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("sbn", 4),
				nn.NewReLU(),
				nn.NewMaxPool(2, 2, 2),
				nn.NewResidual(body, nil, nil),
				nn.NewReLU(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 4*(hw/2)*(hw/2), classes, r),
			))
		},
	},
	{
		// Projection shortcut (stride-2 body, 1×1 conv shortcut) followed
		// by average pooling, on the X²act path.
		name: "x2-projection-shortcut", hw: 8, inC: 2,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			body := nn.NewSequential(
				conv("pb1", 2, 6, 3, 2, 1, r),
				nn.NewBatchNorm2D("pbn1", 6),
				nn.NewX2Act("pa1", (hw/2)*(hw/2)*6),
				conv("pb2", 6, 6, 3, 1, 1, r),
				nn.NewBatchNorm2D("pbn2", 6),
			)
			short := nn.NewSequential(
				conv("ps", 2, 6, 1, 2, 0, r),
				nn.NewBatchNorm2D("psbn", 6),
			)
			return nn.NewNetwork(nn.NewSequential(
				nn.NewResidual(body, short, nil),
				nn.NewX2Act("pa2", (hw/2)*(hw/2)*6),
				nn.NewAvgPool(2, 2, 2),
				nn.NewFlatten(),
				nn.NewLinear("fc", 6*(hw/4)*(hw/4), classes, r),
			))
		},
	},
	{
		// Residual nested inside another residual's body, the deepest
		// weight-ordering case of the compiler's depth-first walk.
		name: "nested-residual", hw: 8, inC: 2,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			inner := nn.NewResidual(nn.NewSequential(
				conv("ni1", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("nibn", 4),
			), nil, nil)
			outerBody := nn.NewSequential(
				conv("no1", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("nobn", 4),
				nn.NewX2Act("noa", hw*hw*4),
				inner,
			)
			outerShort := nn.NewSequential(conv("ns", 4, 4, 1, 1, 0, r))
			return nn.NewNetwork(nn.NewSequential(
				conv("stem", inC, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("sbn", 4),
				nn.NewX2Act("sa", hw*hw*4),
				nn.NewResidual(outerBody, outerShort, nil),
				nn.NewGlobalAvgPool(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 4, classes, r),
			))
		},
	},
	{
		// Depthwise convolution (grouped kernel path) between dense convs.
		name: "depthwise-x2", hw: 12, inC: 3,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			return nn.NewNetwork(nn.NewSequential(
				conv("c1", inC, 6, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn1", 6),
				nn.NewX2Act("a1", hw*hw*6),
				nn.NewDepthwiseConv2D("dw", 6, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn2", 6),
				nn.NewX2Act("a2", hw*hw*6),
				nn.NewGlobalAvgPool(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 6, classes, r),
			))
		},
	},
}

// warmNet runs a few train-mode forwards so BatchNorm running statistics
// are realistic before compilation folds them.
func warmNet(net *nn.Network, r *rng.RNG, hw, inC int) {
	for i := 0; i < 4; i++ {
		x := tensor.New(8, inC, hw, hw).RandNorm(r, 0.5)
		net.Forward(x, true)
	}
}

// randQueries draws k modest-magnitude random queries.
func randQueries(r *rng.RNG, k, inC, hw int) []*tensor.Tensor {
	qs := make([]*tensor.Tensor, k)
	for i := range qs {
		qs[i] = tensor.New(1, inC, hw, hw).RandNorm(r, 0.5)
	}
	return qs
}

// crossPathOutputs runs one program over all three paths and returns
// (sequential, batched) per-query logits, asserting party agreement.
func crossPathOutputs(t *testing.T, net *nn.Network, queries []*tensor.Tensor, seed uint64) (seq, batched [][]float64) {
	t.Helper()
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	k := len(queries)
	var mu sync.Mutex
	perParty := [2][2][][]float64{} // [party][0=seq 1=batch][query]
	err = mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
		eng := NewEngine(prog)
		if err := eng.Setup(p); err != nil {
			return err
		}
		share := func(q *tensor.Tensor) (mpc.Share, error) {
			var enc []uint64
			if p.ID == 1 {
				enc = p.EncodeTensor(q.Data)
			}
			return p.ShareInput(1, enc, q.Shape...)
		}
		reveal := func(s mpc.Share) ([]float64, error) {
			vals, err := p.Reveal(s)
			if err != nil {
				return nil, err
			}
			return p.DecodeTensor(vals), nil
		}
		// Path 1: K sequential Infer calls.
		seqOut := make([][]float64, k)
		for i, q := range queries {
			xs, err := share(q)
			if err != nil {
				return err
			}
			out, err := eng.Infer(xs)
			if err != nil {
				return err
			}
			if seqOut[i], err = reveal(out); err != nil {
				return err
			}
		}
		// Path 2: the same K queries packed into one batch, as a serving
		// flush packs them: pack, share, one Infer, demux the logits.
		packed, counts, err := PackQueries(queries)
		if err != nil {
			return err
		}
		xs, err := share(packed)
		if err != nil {
			return err
		}
		out, err := eng.Infer(xs)
		if err != nil {
			return err
		}
		logits, err := reveal(out)
		if err != nil {
			return err
		}
		batchOut, err := SplitLogits(logits, counts)
		if err != nil {
			return err
		}
		mu.Lock()
		perParty[p.ID][0] = seqOut
		perParty[p.ID][1] = batchOut
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both parties must reconstruct bit-identical logits on both paths.
	for path := 0; path < 2; path++ {
		for q := 0; q < k; q++ {
			a, b := perParty[0][path][q], perParty[1][path][q]
			if len(a) != len(b) {
				t.Fatalf("path %d query %d: party output lengths %d vs %d", path, q, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("path %d query %d: parties disagree at %d: %v vs %v", path, q, i, a[i], b[i])
				}
			}
		}
	}
	return perParty[0][0], perParty[0][1]
}

// TestCrossPathEquivalenceVariants is the headline property suite over
// hand-built program shapes.
func TestCrossPathEquivalenceVariants(t *testing.T) {
	const bound = 0.05
	for vi, v := range netVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			r := rng.New(uint64(1000 + vi))
			net := v.build(r, v.hw, v.inC, 3)
			warmNet(net, r, v.hw, v.inC)
			queries := randQueries(r, 3, v.inC, v.hw)
			seq, batched := crossPathOutputs(t, net, queries, uint64(40+vi))
			for i, q := range queries {
				plain := net.Forward(q, false).Data
				if d := maxAbsDiff(seq[i], plain); d > bound {
					t.Fatalf("query %d: sequential vs plaintext diff %v", i, d)
				}
				if d := maxAbsDiff(batched[i], plain); d > bound {
					t.Fatalf("query %d: batched vs plaintext diff %v", i, d)
				}
				if d := maxAbsDiff(batched[i], seq[i]); d > 2*bound {
					t.Fatalf("query %d: batched vs sequential diff %v", i, d)
				}
			}
		})
	}
}

// TestCrossPathEquivalenceBackbones runs the same property through real
// trained backbones on both activation paths.
func TestCrossPathEquivalenceBackbones(t *testing.T) {
	cases := []struct {
		backbone string
		act      models.ActChoice
		bound    float64
	}{
		{"resnet18", models.ActX2, 0.08},
		{"resnet18", models.ActReLU, 0.08},
		{"mobilenetv2", models.ActX2, 0.1},
	}
	hw := hwmodel.DefaultConfig()
	for ci, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-%v", c.backbone, c.act), func(t *testing.T) {
			m, d := smallModel(t, c.backbone, c.act)
			queries := make([]*tensor.Tensor, 3)
			for i := range queries {
				queries[i] = query(d, 20+i)
			}
			batch, err := RunBatch(m, hw, queries, uint64(300+ci))
			if err != nil {
				t.Fatal(err)
			}
			if batch.Batch != len(queries) || len(batch.PerQuery) != len(queries) {
				t.Fatalf("batch bookkeeping: Batch=%d PerQuery=%d", batch.Batch, len(batch.PerQuery))
			}
			if batch.MaxAbsErr > c.bound {
				t.Fatalf("batched vs plaintext err %v", batch.MaxAbsErr)
			}
			if batch.OnlineSeconds <= 0 || batch.OnlineBytesPerQuery <= 0 ||
				batch.OnlineSecondsPerQuery <= 0 {
				t.Fatalf("amortized metrics not populated: %+v", batch)
			}
			if got := batch.OnlineBytesPerQuery * int64(batch.Batch); got > batch.OnlineBytes ||
				got < batch.OnlineBytes-int64(batch.Batch) {
				t.Fatalf("amortized bytes %d inconsistent with total %d", got, batch.OnlineBytes)
			}
			for i, q := range queries {
				single, err := Run(m, hw, q, uint64(400+10*ci+i))
				if err != nil {
					t.Fatal(err)
				}
				if single.MaxAbsErr > c.bound {
					t.Fatalf("query %d: sequential vs plaintext err %v", i, single.MaxAbsErr)
				}
				if d := maxAbsDiff(batch.PerQuery[i], single.Output); d > 2*c.bound {
					t.Fatalf("query %d: batched vs sequential diff %v", i, d)
				}
			}
		})
	}
}

// TestPackSplitRoundTrip pins the pure packing/demux helpers.
func TestPackSplitRoundTrip(t *testing.T) {
	r := rng.New(7)
	qs := []*tensor.Tensor{
		tensor.New(1, 2, 4, 4).RandNorm(r, 1),
		tensor.New(2, 2, 4, 4).RandNorm(r, 1), // a multi-row query keeps its rows
		tensor.New(2, 4, 4).RandNorm(r, 1),    // rank-3 query counts as one row
	}
	packed, counts, err := PackQueries(qs)
	if err != nil {
		t.Fatal(err)
	}
	if packed.Shape[0] != 4 || counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("packed %v counts %v", packed.Shape, counts)
	}
	// Rows keep their queries' order, and demux hands each query its rows.
	off := 0
	for i, q := range qs {
		for j, v := range q.Data {
			if packed.Data[off+j] != v {
				t.Fatalf("query %d diverges in the packed batch at %d", i, j)
			}
		}
		off += len(q.Data)
	}
	parts, err := SplitLogits(packed.Data, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if len(p) != len(qs[i].Data) || p[0] != qs[i].Data[0] {
			t.Fatalf("part %d: %d values, want query %d's %d", i, len(p), i, len(qs[i].Data))
		}
	}
	// Geometry mismatches are rejected.
	if _, _, err := PackQueries([]*tensor.Tensor{qs[0], tensor.New(1, 3, 4, 4)}); err == nil {
		t.Fatal("mismatched channel count must not pack")
	}
	if _, err := SplitLogits(make([]float64, 10), []int{3}); err == nil {
		t.Fatal("non-divisible logits must not demux")
	}
}
