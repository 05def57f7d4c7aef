package mpc

import (
	"testing"

	"pasnet/internal/obs"
	"pasnet/internal/rng"
)

func TestArgMaxMatchesPlaintext(t *testing.T) {
	r := rng.New(61)
	const n, d = 4, 7
	xs := make([]float64, n*d)
	for i := range xs {
		xs[i] = r.Norm() * 20
	}
	want := make([]uint64, n)
	for b := 0; b < n; b++ {
		best := 0
		for j := 1; j < d; j++ {
			if xs[b*d+j] > xs[b*d+best] {
				best = j
			}
		}
		want[b] = uint64(best)
	}
	runBoth(t, 60, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(0, enc, n, d)
		if err != nil {
			return err
		}
		idx, err := p.ArgMax(x)
		if err != nil {
			return err
		}
		got, err := p.Reveal(idx)
		if err != nil {
			return err
		}
		for b := 0; b < n; b++ {
			if got[b] != want[b] {
				t.Errorf("party %d row %d: argmax %d, want %d", p.ID, b, got[b], want[b])
				return nil
			}
		}
		return nil
	})
}

func TestArgMaxPowerOfTwoAndSingle(t *testing.T) {
	// d=4 exercises the clean tournament; d=1 the degenerate case.
	for _, d := range []int{1, 4} {
		xs := make([]float64, d)
		for j := range xs {
			xs[j] = float64(j * j)
		}
		runBoth(t, uint64(62+d), func(p *Party) error {
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(0, enc, 1, d)
			if err != nil {
				return err
			}
			idx, err := p.ArgMax(x)
			if err != nil {
				return err
			}
			got, err := p.Reveal(idx)
			if err != nil {
				return err
			}
			if got[0] != uint64(d-1) {
				t.Errorf("d=%d: argmax %d, want %d", d, got[0], d-1)
			}
			return nil
		})
	}
}

func TestArgMaxRejectsBadShape(t *testing.T) {
	runBoth(t, 65, func(p *Party) error {
		if _, err := p.ArgMax(NewShare(3)); err == nil {
			t.Error("1-D share must be rejected")
		}
		if _, err := p.ArgMax(NewShare(2, 0)); err == nil {
			t.Error("empty rows must be rejected")
		}
		return nil
	})
}

// TestArgMaxWirePin pins the tournament's wire cost by formula: each level
// over m = N·⌊D'/2⌋ pairs is one wide DReLU (three exchanges of the leaf's
// 434m, the level's 98m and the root's 14m product bits) and one select of
// the 2m values and indices (one exchange of 2m words and 2m selector
// bits) — four exchanges per level, one fewer than a bit-to-ring
// conversion followed by a ring product took.
func TestArgMaxWirePin(t *testing.T) {
	const n, d = 3, 7 // levels over 7 → 4 → 2 → 1 candidates
	r := rng.New(67)
	xs := make([]float64, n*d)
	for i := range xs {
		xs[i] = r.Norm() * 20
	}
	var frames, words int
	for c := d; c > 1; c = (c + 1) / 2 {
		m := n * (c / 2)
		frames += 4
		words += BitWords(434*m) + BitWords(98*m) + BitWords(14*m) + BitWords(2*m) + 2*m
	}
	runBoth(t, 68, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(0, enc, n, d)
		if err != nil {
			return err
		}
		wire := obs.InstrumentConn(p.Conn, nil)
		p.Conn = wire
		if _, err := p.ArgMax(x); err != nil {
			return err
		}
		want := obs.WireTotals{SentBytes: int64(8 * words), SentFrames: int64(frames), RecvBytes: int64(8 * words), RecvFrames: int64(frames)}
		if got := wire.Totals(); got != want {
			t.Errorf("party %d: ArgMax moved %+v, want %+v", p.ID, got, want)
		}
		return nil
	})
}
