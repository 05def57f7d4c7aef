package pi

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"pasnet/internal/models"
	"pasnet/internal/rng"
)

// TestServedLogitsGolden pins the served logits of every variant with no
// residual whose two branches start with a linear op — one query row and
// a three-row batch through a loopback session pair (Run) — to digests
// recorded while the query was still secret-shared by a frame of its own.
// Party 1 now holds the query whole and party 0 zeros, and party 0's first
// linear output (0 + (X − a))∘W + z₀ is the word the old sharing gave, so
// not one logit bit may move.
func TestServedLogitsGolden(t *testing.T) {
	want := map[string]uint64{
		"plain-x2-gap":          0x378ff04c75bb9e8f,
		"relu-maxpool-residual": 0x41554cc13637560b,
		"depthwise-x2":          0x6dd35ab480b02406,
		"pooled-shortcut":       0x3bb2a0c5ca173818,
	}
	for vi, v := range netVariants {
		golden, ok := want[v.name]
		if !ok {
			continue
		}
		r := rng.New(uint64(2000 + vi))
		net := v.build(r, v.hw, v.inC, 3)
		warmNet(net, r, v.hw, v.inC)
		prog, err := Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range prog.Ops {
			if op.sharesHead() {
				t.Fatalf("%s: a residual's branches share a head; its logits may move", v.name)
			}
		}
		m := &models.Model{Name: v.name, Net: net}
		h := fnv.New64a()
		for _, k := range []int{1, 3} {
			res, err := Run(m, randQueries(r, k, v.inC, v.hw), uint64(60+vi), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range res.Output {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
			}
		}
		if got := h.Sum64(); got != golden {
			t.Errorf("%s: served logits digest %#016x, want %#016x", v.name, got, golden)
		}
	}
}
