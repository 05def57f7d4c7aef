package gateway

import (
	"fmt"
	"strings"
	"testing"

	"pasnet/internal/models"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// flattenModel builds a net whose flatten→linear dims pin the input
// resolution exactly (the VGG shape-sensitivity case: unlike GAP-based
// nets, a wrong resolution cannot silently forward).
func flattenModel(hw int, seed uint64) *models.Model {
	r := rng.New(seed)
	net := nn.NewNetwork(nn.NewSequential(
		nn.NewConv2D("c1", tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, false, r),
		nn.NewBatchNorm2D("bn1", 4),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewLinear("fc", 4*hw*hw, 4, r),
	))
	net.Forward(tensor.New(2, 3, hw, hw).RandNorm(r, 0.5), true)
	return &models.Model{Name: "flat", Net: net}
}

// TestRegisterProbesGeometry pins the registration-time guarantee: a spec
// whose declared geometry cannot drive its trained network is rejected at
// Register with a descriptive error, not at the first serving flush.
func TestRegisterProbesGeometry(t *testing.T) {
	m, input := testModel("ok", 3, 8, 4, 21)
	good := &ModelSpec{ID: "ok", Model: m, Input: input, Shards: Shards("ok", 1, 77, "")}
	if err := NewRegistry().Register(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name  string
		spec  *ModelSpec
		wantA string
	}{
		{
			name: "channel mismatch",
			spec: func() *ModelSpec {
				m, _ := testModel("chan", 3, 8, 4, 22)
				return &ModelSpec{ID: "chan", Model: m, Input: []int{5, 8, 8}, Shards: Shards("chan", 1, 78, "")}
			}(),
			wantA: "does not drive its trained network",
		},
		{
			name: "flatten resolution mismatch",
			spec: &ModelSpec{
				ID: "flat", Model: flattenModel(8, 23), Input: []int{3, 16, 16},
				Shards: Shards("flat", 1, 79, ""),
			},
			wantA: "does not drive its trained network",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := NewRegistry().Register(tc.spec)
			if err == nil {
				t.Fatalf("mismatched spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantA) {
				t.Fatalf("error %q does not mention %q", err, tc.wantA)
			}
		})
	}

	// Spatially polymorphic nets (GAP head) genuinely serve at any
	// resolution — those must keep registering.
	poly, _ := testModel("poly", 3, 8, 4, 24)
	spec := &ModelSpec{ID: "poly", Model: poly, Input: []int{3, 16, 16}, Shards: Shards("poly", 1, 80, "")}
	if err := NewRegistry().Register(spec); err != nil {
		t.Fatalf("polymorphic model rejected at alternate resolution: %v", err)
	}
}

// TestRegisterLogsComparisonWidths pins the operator's view of the narrow
// comparison: Register logs, per model, how many ReLU layers compare 21
// bits and the least headroom among them — 128.0 over the largest narrow
// bound — and a ReLU-free model logs none.
func TestRegisterLogsComparisonWidths(t *testing.T) {
	r := rng.New(5)
	relus := []*nn.ReLU{nn.NewReLU(), nn.NewReLU(), nn.NewReLU(), nn.NewReLU()}
	// Headroom 64 and 6.4 run narrow; 3.2 is inside the two-bit margin and
	// 0 recorded no bound, so both run 63 bits.
	for i, b := range []float64{2, 20, 40, 0} {
		relus[i].Bound = b
	}
	net := nn.NewNetwork(nn.NewSequential(
		nn.NewConv2D("c1", tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, false, r),
		relus[0], relus[1],
		nn.NewResidual(nn.NewSequential(relus[2]), nil, nil),
		relus[3],
		nn.NewFlatten(),
		nn.NewLinear("fc", 4*8*8, 4, r),
	))
	x2, input := testModel("x2", 3, 8, 4, 21)

	var lines []string
	reg := NewRegistry()
	reg.SetLogf(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) })
	for i, m := range []*models.Model{{Name: "relu", Net: net}, x2} {
		spec := &ModelSpec{ID: m.Name, Model: m, Input: input, Shards: Shards(m.Name, 1, uint64(80+i), "")}
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		`gateway: model "relu": 2 of 4 ReLU layers compare 21 bits, least headroom 6.40× over the recorded input bound`,
		`gateway: model "x2": 0 of 0 ReLU layers compare 21 bits`,
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Register logged\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}
