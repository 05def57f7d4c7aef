package mpc

import (
	"math"
	"sync"
	"testing"

	"pasnet/internal/rng"
)

// These tests pin every operator protocol's batch-dimension (N>1)
// semantics: a batched evaluation must equal the per-sample evaluations
// stacked together, with no cross-sample leakage. They back the pi
// engine's batched flushes, which route K packed queries through each op
// once.

// randVec draws modest-magnitude values safe for fixed-point comparison.
func randVec(r *rng.RNG, n int) []float64 {
	out := make([]float64, n)
	r.FillNorm(out, 0.75)
	return out
}

// plainPool references kh×kw/stride max or average pooling over one sample.
func plainPool(x []float64, c, h, w, k, stride int, max bool) []float64 {
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := make([]float64, c*oh*ow)
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float64
				if max {
					acc = math.Inf(-1)
				}
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						v := x[base+(oy*stride+ky)*w+ox*stride+kx]
						if max {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
					}
				}
				if !max {
					acc /= float64(k * k)
				}
				out[oi] = acc
				oi++
			}
		}
	}
	return out
}

// batchPoolCase checks a pooling protocol on N=3 against stacked
// per-sample references.
func batchPoolCase(t *testing.T, seed uint64, max bool) {
	t.Helper()
	const n, c, h, w, k, stride = 3, 2, 6, 6, 2, 2
	r := rng.New(seed)
	samples := make([][]float64, n)
	var flat []float64
	var want []float64
	for i := range samples {
		samples[i] = randVec(r, c*h*w)
		flat = append(flat, samples[i]...)
		want = append(want, plainPool(samples[i], c, h, w, k, stride, max)...)
	}
	shareAndRun(t, seed, flat, []int{n, c, h, w},
		func(p *Party, x Share) (Share, error) {
			if max {
				return p.MaxPool2D(x, k, k, stride)
			}
			return p.AvgPool2D(x, k, k, stride)
		}, want, 2e-3)
}

func TestMaxPool2DBatched(t *testing.T) { batchPoolCase(t, 901, true) }
func TestAvgPool2DBatched(t *testing.T) { batchPoolCase(t, 902, false) }

func TestGlobalAvgPool2DBatched(t *testing.T) {
	const n, c, h, w = 3, 4, 5, 5
	r := rng.New(903)
	flat := randVec(r, n*c*h*w)
	want := make([]float64, n*c)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			var s float64
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				s += flat[base+i]
			}
			want[b*c+ch] = s / float64(h*w)
		}
	}
	shareAndRun(t, 903, flat, []int{n, c, h, w},
		func(p *Party, x Share) (Share, error) { return p.GlobalAvgPool2D(x) },
		want, 2e-3)
}

func TestAddBiasBatched(t *testing.T) {
	const n, c, h, w = 3, 4, 3, 3
	r := rng.New(904)
	flat := randVec(r, n*c*h*w)
	bias := randVec(r, c)
	want := make([]float64, len(flat))
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				want[base+i] = flat[base+i] + bias[ch]
			}
		}
	}
	shareAndRun(t, 904, flat, []int{n, c, h, w},
		func(p *Party, x Share) (Share, error) { return p.AddBias(x, bias) },
		want, 2e-3)
}

func TestAddBiasVecBatched(t *testing.T) {
	const n, d = 4, 5
	r := rng.New(905)
	flat := randVec(r, n*d)
	bias := randVec(r, d)
	want := make([]float64, len(flat))
	for b := 0; b < n; b++ {
		for j := 0; j < d; j++ {
			want[b*d+j] = flat[b*d+j] + bias[j]
		}
	}
	shareAndRun(t, 905, flat, []int{n, d},
		func(p *Party, x Share) (Share, error) { return p.AddBiasVec(x, bias) },
		want, 2e-3)
}

func TestReLUAndX2ActBatched(t *testing.T) {
	const n, c, h, w = 3, 2, 4, 4
	r := rng.New(906)
	flat := randVec(r, n*c*h*w)
	wantReLU := make([]float64, len(flat))
	prm := X2ActParams{W1: 0.2, W2: 0.9, B: -0.1, Scale: 1}
	wantX2 := make([]float64, len(flat))
	for i, v := range flat {
		wantReLU[i] = math.Max(v, 0)
		wantX2[i] = prm.W1*v*v + prm.W2*v + prm.B
	}
	shareAndRun(t, 906, flat, []int{n, c, h, w},
		func(p *Party, x Share) (Share, error) { return p.ReLU(x) },
		wantReLU, 2e-3)
	shareAndRun(t, 907, flat, []int{n, c, h, w},
		func(p *Party, x Share) (Share, error) { return p.X2Act(x, prm) },
		wantX2, 5e-3)
}

// TestArgMaxBatched checks the row-wise argmax protocol on a batch whose
// rows have their maxima at different positions (including first and last
// column), so any cross-row index mixup would be caught.
func TestArgMaxBatched(t *testing.T) {
	rows := [][]float64{
		{3.5, -1, 0.25, 1, 2},
		{-4, -3.5, -0.5, -2, -6},
		{0.1, 0.2, 0.3, 0.4, 0.5},
		{1, 7.25, -2, 7, 0},
	}
	n, d := len(rows), len(rows[0])
	var flat []float64
	want := make([]uint64, n)
	for i, row := range rows {
		flat = append(flat, row...)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		want[i] = uint64(best)
	}
	var mu sync.Mutex
	results := map[int][]uint64{}
	runBoth(t, 908, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(flat)
		}
		x, err := p.ShareInput(0, enc, n, d)
		if err != nil {
			return err
		}
		idx, err := p.ArgMax(x)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(idx)
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.ID] = plain
		mu.Unlock()
		return nil
	})
	for id, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("party %d row %d: argmax %d, want %d", id, i, got[i], want[i])
			}
		}
	}
	if len(results) != 2 {
		t.Fatal("expected results from both parties")
	}
}
