package pi

import (
	"fmt"
	"hash/fnv"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// These table-driven tests pin the weight-slot order Compile assigns —
// layer order, depth-first through residual blocks, the body before the
// shortcut — and that Setup shares the weight table in that order: if
// the two ever disagreed, inference would silently consume the wrong
// weight tensor for every op after the divergence. The tests rebuild each
// weight as W = F + b from party 1's Setup state — the F party 0 sent and
// the plain mask of its slot — and match it against the plaintext tensor
// its table entry carries.

// setupWeights runs Engine.Setup on both parties and rebuilds every fixed
// weight tensor in setup order.
func setupWeights(t *testing.T, prog *Program) [][]uint64 {
	t.Helper()
	c0, c1 := transport.Pipe()
	engs := setupBoth(t, prog, c0, c1)
	out := make([][]uint64, len(engs[1].fixedWs))
	for i, fw := range engs[1].fixedWs {
		f := fw.F()
		out[i] = mpc.CombineShares(f, mpc.FixedMaskPlain(setupSeed, fw.Mask, len(f)))
	}
	return out
}

func TestSetupWeightOrderThroughResiduals(t *testing.T) {
	r := rng.New(31)
	mk := func(name string, inC, outC int) *nn.Conv2D {
		return nn.NewConv2D(name, tensor.ConvSpec{InC: inC, OutC: outC, KH: 3, KW: 3, Stride: 1, Pad: 1}, false, r)
	}
	cases := []struct {
		name  string
		net   *nn.Network
		order []string // expected secret-tensor names in setup order
	}{
		{
			name: "flat",
			net: nn.NewNetwork(nn.NewSequential(
				mk("a", 2, 3), mk("b", 3, 4), nn.NewFlatten(), nn.NewLinear("fc", 4*16, 2, r),
			)),
			order: []string{"a.weight", "b.weight", "fc.weight"},
		},
		{
			name: "residual-body-before-shortcut",
			net: nn.NewNetwork(nn.NewSequential(
				mk("stem", 2, 3),
				nn.NewResidual(
					nn.NewSequential(mk("body1", 3, 3), mk("body2", 3, 3)),
					nn.NewSequential(mk("short", 3, 3)),
					nil,
				),
				mk("tail", 3, 2),
				nn.NewFlatten(),
				nn.NewLinear("fc", 2*16, 2, r),
			)),
			order: []string{"stem.weight", "body1.weight", "body2.weight", "short.weight", "tail.weight", "fc.weight"},
		},
		{
			name: "nested-residual-bodies",
			net: nn.NewNetwork(nn.NewSequential(
				mk("stem", 2, 3),
				nn.NewResidual(
					nn.NewSequential(
						mk("outerA", 3, 3),
						nn.NewResidual(
							nn.NewSequential(mk("innerBody", 3, 3)),
							nn.NewSequential(mk("innerShort", 3, 3)),
							nil,
						),
						mk("outerB", 3, 3),
					),
					nn.NewSequential(mk("outerShort", 3, 3)),
					nil,
				),
				nn.NewFlatten(),
				nn.NewLinear("fc", 3*16, 2, r),
			)),
			order: []string{
				"stem.weight",
				"outerA.weight", "innerBody.weight", "innerShort.weight", "outerB.weight",
				"outerShort.weight",
				"fc.weight",
			},
		},
		{
			name: "residual-inside-shortcut",
			net: nn.NewNetwork(nn.NewSequential(
				mk("stem", 2, 3),
				nn.NewResidual(
					nn.NewSequential(mk("body", 3, 3)),
					nn.NewSequential(
						mk("scPre", 3, 3),
						nn.NewResidual(nn.NewSequential(mk("scInner", 3, 3)), nil, nil),
					),
					nil,
				),
				nn.NewFlatten(),
				nn.NewLinear("fc", 3*16, 2, r),
			)),
			order: []string{"stem.weight", "body.weight", "scPre.weight", "scInner.weight", "fc.weight"},
		},
		{
			name: "depthwise-and-bn-folding",
			net: nn.NewNetwork(nn.NewSequential(
				mk("c1", 2, 4),
				nn.NewBatchNorm2D("bn1", 4), // folds into c1, consuming no slot
				nn.NewDepthwiseConv2D("dw", 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn2", 4),
				mk("c2", 4, 2),
				nn.NewFlatten(),
				nn.NewLinear("fc", 2*16, 2, r),
			)),
			order: []string{"c1.weight", "dw.weight", "c2.weight", "fc.weight"},
		},
	}

	codec := fixed.Default64()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog, err := Compile(c.net)
			if err != nil {
				t.Fatal(err)
			}
			order := prog.weights
			if len(order) != len(c.order) {
				t.Fatalf("the weight table holds %d secret tensors, want %d", len(order), len(c.order))
			}
			for i, want := range c.order {
				if order[i].name != want {
					t.Fatalf("setup slot %d holds %q, want %q", i, order[i].name, want)
				}
			}
			combined := setupWeights(t, prog)
			if len(combined) != len(order) {
				t.Fatalf("Setup fixed %d tensors, want %d", len(combined), len(order))
			}
			for i, h := range order {
				enc := codec.EncodeSlice(h.weights, nil)
				if h.kind == headFC {
					// Setup stores linear weights transposed (In×Out).
					outD, in := h.shape[0], h.shape[1]
					tr := make([]uint64, len(enc))
					for row := 0; row < outD; row++ {
						for col := 0; col < in; col++ {
							tr[col*outD+row] = enc[row*in+col]
						}
					}
					enc = tr
				}
				if len(combined[i]) != len(enc) {
					t.Fatalf("slot %d (%s): %d ring words, want %d", i, h.name, len(combined[i]), len(enc))
				}
				for j := range enc {
					if combined[i][j] != enc[j] {
						t.Fatalf("slot %d (%s) diverges from plaintext weights at %d — setup order and program order miscorrespond", i, h.name, j)
					}
				}
			}
		})
	}
}

// TestTraceTapeGolden pins the demand tape one flush consumes — each
// demand's kind, dims, mask slot and shared flag — for the demo backbone
// in its three program classes at one and two rows, and for a nested
// residual net, to digests recorded while Program was still a tree of
// residual ops: lowering it to a flat op list must not move one demand.
func TestTraceTapeGolden(t *testing.T) {
	r := rng.New(31)
	mk := func(name string, inC, outC int) *nn.Conv2D {
		return nn.NewConv2D(name, tensor.ConvSpec{InC: inC, OutC: outC, KH: 3, KW: 3, Stride: 1, Pad: 1}, false, r)
	}
	nested := nn.NewNetwork(nn.NewSequential(
		mk("stem", 2, 3),
		nn.NewResidual(nn.NewSequential(
			mk("outerA", 3, 3),
			nn.NewResidual(nn.NewSequential(mk("innerBody", 3, 3)), nn.NewSequential(mk("innerShort", 3, 3)), nil),
			mk("outerB", 3, 3),
		), nn.NewSequential(mk("outerShort", 3, 3)), nil),
		nn.NewFlatten(),
		nn.NewLinear("fc", 3*16, 2, r),
	))
	for _, c := range []struct {
		name  string
		net   *nn.Network
		shape []int
		want  uint64
	}{
		{"relu-max/N=1", trainedDemoModel(t, "relu-max").Net, []int{1, 3, 8, 8}, 0xb7e051ee217a407c},
		{"relu-max/N=2", trainedDemoModel(t, "relu-max").Net, []int{2, 3, 8, 8}, 0x5537dfa968bac113},
		{"x2-avg/N=1", trainedDemoModel(t, "x2-avg").Net, []int{1, 3, 8, 8}, 0x0b7f24bc0a57d701},
		{"x2-avg/N=2", trainedDemoModel(t, "x2-avg").Net, []int{2, 3, 8, 8}, 0x7ebaa8f28a1259bf},
		{"mixed/N=1", trainedDemoModel(t, "mixed").Net, []int{1, 3, 8, 8}, 0xa034d3f302a115c6},
		{"mixed/N=2", trainedDemoModel(t, "mixed").Net, []int{2, 3, 8, 8}, 0x85267ad29a132259},
		{"nested-residual/N=2", nested, []int{2, 2, 4, 4}, 0x299025320b837589},
	} {
		prog, err := Compile(c.net)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := TraceTape(prog, c.shape)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, d := range tape {
			fmt.Fprintf(h, "%d %d %d %d %d %+v %d %t\n", d.Kind, d.N, d.M, d.K, d.P, d.Conv, d.Mask, d.Shared)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: tape digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
