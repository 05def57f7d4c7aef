package mpc

import (
	"fmt"

	"pasnet/internal/kernel"
	"pasnet/internal/transport"
)

// ReLU computes shares of max(x, 0) elementwise: a DReLU comparison and a
// one-round select on its bit (paper 2PC-ReLU) — four exchanges in all.
func (p *Party) ReLU(x Share) (Share, error) { return p.ReLUBounded(x, 0) }

// ReLUBounded is ReLU for a layer whose inputs were recorded within
// |x| ≤ bound, 0 meaning no bound: when ReLUHeadroom(p.Codec, bound)
// exceeds NarrowMargin the comparison runs the narrow layout — three
// exchanges in all — and otherwise the wide one. Both parties must pass
// the same bound; if they do not, their owned rounds differ in length and
// both fail on the first one.
func (p *Party) ReLUBounded(x Share, bound float64) (Share, error) {
	lay := &wideCmp
	if ReLUHeadroom(p.Codec, bound) > NarrowMargin {
		lay = &narrowCmp
	}
	bits, err := p.drelu(x, lay)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: relu: %w", err)
	}
	out, err := p.selectBits(bits, x)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: relu: %w", err)
	}
	return out, nil
}

// maxPairs computes elementwise max(a, b) for two equal-length share
// vectors: max(a,b) = b + (a−b >= 0)·(a−b), batching the comparison.
func (p *Party) maxPairs(a, b Share) (Share, error) {
	diff := p.Sub(a, b)
	bits, err := p.DReLU(diff)
	if err != nil {
		return Share{}, err
	}
	sel, err := p.selectBits(bits, diff)
	if err != nil {
		return Share{}, err
	}
	return p.Add(b, sel), nil
}

// poolOutHW returns the output size of op's kh×kw/stride pool over an
// NCHW share. A window larger than the map has no valid position; Go's
// truncating division would still report one, so it is rejected here.
func poolOutHW(op string, shape []int, kh, kw, stride int) (oh, ow int, err error) {
	if len(shape) != 4 {
		return 0, 0, fmt.Errorf("mpc: %s needs NCHW share, got %v", op, shape)
	}
	h, w := shape[2], shape[3]
	if h < kh || w < kw {
		return 0, 0, fmt.Errorf("mpc: %s window %dx%d exceeds %dx%d feature map", op, kh, kw, h, w)
	}
	return (h-kh)/stride + 1, (w-kw)/stride + 1, nil
}

// MaxPool2D computes shares of kh×kw/stride max pooling over an NCHW
// share via a batched pairwise tournament (paper 2PC-MaxPool: one maxPairs
// — a comparison and a select — per level of the reduction tree).
func (p *Party) MaxPool2D(x Share, kh, kw, stride int) (Share, error) {
	oh, ow, err := poolOutHW("maxpool", x.Shape, kh, kw, stride)
	if err != nil {
		return Share{}, err
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	nOut := n * c * oh * ow
	// cols[i] is the i-th window member across all output positions.
	win := kh * kw
	cols := make([]Share, win)
	for i := range cols {
		cols[i] = NewShare(nOut)
	}
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					m := 0
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							cols[m].V[oi] = x.V[base+(oy*stride+ky)*w+ox*stride+kx]
							m++
						}
					}
					oi++
				}
			}
		}
	}
	// Tournament: at each level, all pairs share one batched comparison.
	for len(cols) > 1 {
		half := len(cols) / 2
		aCat := NewShare(half * nOut)
		bCat := NewShare(half * nOut)
		for i := 0; i < half; i++ {
			copy(aCat.V[i*nOut:(i+1)*nOut], cols[2*i].V)
			copy(bCat.V[i*nOut:(i+1)*nOut], cols[2*i+1].V)
		}
		maxed, err := p.maxPairs(aCat, bCat)
		if err != nil {
			return Share{}, fmt.Errorf("mpc: maxpool: %w", err)
		}
		next := make([]Share, 0, half+len(cols)%2)
		for i := 0; i < half; i++ {
			s := NewShare(nOut)
			copy(s.V, maxed.V[i*nOut:(i+1)*nOut])
			next = append(next, s)
		}
		if len(cols)%2 == 1 {
			next = append(next, cols[len(cols)-1])
		}
		cols = next
	}
	return cols[0].Reshape(n, c, oh, ow), nil
}

// AvgPool2D computes shares of kh×kw/stride average pooling. Summation is
// local; the division is a public scale (paper 2PC-AvgPool: addition and
// scaling only, no communication).
func (p *Party) AvgPool2D(x Share, kh, kw, stride int) (Share, error) {
	oh, ow, err := poolOutHW("avgpool", x.Shape, kh, kw, stride)
	if err != nil {
		return Share{}, err
	}
	out := NewShare(x.Shape[0], x.Shape[1], oh, ow)
	if err := p.AvgPool2DTo(out, x, kh, kw, stride); err != nil {
		return Share{}, err
	}
	return out, nil
}

// AvgPool2DTo is AvgPool2D into dst, which must have the pooled output's
// length: each output word is its window's sum scaled by the encoded
// 1/(kh·kw) and truncated in the same pass, as ScalePublic does to the
// sums.
func (p *Party) AvgPool2DTo(dst, x Share, kh, kw, stride int) error {
	oh, ow, err := poolOutHW("avgpool", x.Shape, kh, kw, stride)
	if err != nil {
		return err
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if dst.Len() != n*c*oh*ow {
		return fmt.Errorf("mpc: avgpool: destination length %d != output %d", dst.Len(), n*c*oh*ow)
	}
	scale, f, trunc := p.Codec.Encode(1/float64(kh*kw)), p.Codec.FracBits, trunc0
	if p.ID == 1 {
		trunc = trunc1
	}
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s uint64
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							s += x.V[base+(oy*stride+ky)*w+ox*stride+kx]
						}
					}
					dst.V[oi] = trunc(scale*s, f)
					oi++
				}
			}
		}
	}
	return nil
}

// GlobalAvgPool2D averages over the full spatial extent, producing an
// N×C×1×1 share.
func (p *Party) GlobalAvgPool2D(x Share) (Share, error) {
	if len(x.Shape) != 4 {
		return Share{}, fmt.Errorf("mpc: global avgpool needs NCHW share, got %v", x.Shape)
	}
	return p.AvgPool2D(x, x.Shape[2], x.Shape[3], 1)
}

// X2ActParams are the public coefficients of the trainable polynomial
// activation δ(x) = scale·(w1·x² + w2·x + b), where scale = c/√Nx (paper
// Eq. 4). The coefficients are model metadata known to both servers.
type X2ActParams struct {
	W1, W2, B float64
	// Scale is the c/√Nx normalization baked in at export time.
	Scale float64
}

// X2Act evaluates the polynomial activation on a share: one ciphertext
// square plus public scalings (paper 2PC-X²act: CMPx2 + 2 COMMx2).
func (p *Party) X2Act(x Share, prm X2ActParams) (Share, error) {
	out := NewShare(x.Shape...)
	if err := p.X2ActTo(out, x, prm); err != nil {
		return Share{}, err
	}
	return out, nil
}

// X2ActTo is X2Act into dst, which must have x's length. The square pair's
// one opening sends x − a; then a single pass (kernel.X2Act) forms
// E = (x − a) + (peer's x − a) and each word
//
//	trunc(c1·trunc(Z + 2E∘A [+ E∘E on party 1]) + c2·x) [+ bias on party 0],
//
// Square's combine and truncation followed by y = (c1 ⊙ sq + c2 ⊙ x) >> f
// and the bias, with one shared truncation of the linear combination to
// keep its rounding error to a single ULP — the same ring arithmetic, so
// the same share words, as those steps run one after another. E is never
// stored.
func (p *Party) X2ActTo(dst, x Share, prm X2ActParams) error {
	if dst.Len() != x.Len() {
		return fmt.Errorf("mpc: x2act: destination length %d != input %d", dst.Len(), x.Len())
	}
	a, z, err := p.corr().TakeSquare(x.Len())
	if err != nil {
		return fmt.Errorf("mpc: x2act: square pair: %w", err)
	}
	mine, theirs, err := p.exchangeOne(x.V, a)
	if err != nil {
		return fmt.Errorf("mpc: x2act: square open: %w", err)
	}
	c1 := p.Codec.Encode(prm.Scale * prm.W1)
	c2 := p.Codec.Encode(prm.Scale * prm.W2)
	var bias uint64
	if p.ID == 0 {
		bias = p.Codec.Encode(prm.Scale * prm.B)
	}
	kernel.X2Act(dst.V, mine, theirs, a, z, x.V, c1, c2, bias, p.Codec.FracBits, p.ID)
	transport.Release(theirs)
	return nil
}

// AddBias adds a public per-channel bias to an NCHW share (party 0
// absorbs the constant).
func (p *Party) AddBias(x Share, bias []float64) (Share, error) {
	if len(x.Shape) != 4 || x.Shape[1] != len(bias) {
		return Share{}, fmt.Errorf("mpc: bias length %d vs share %v", len(bias), x.Shape)
	}
	out := x.Clone()
	if p.ID == 0 {
		n, c := x.Shape[0], x.Shape[1]
		hw := x.Shape[2] * x.Shape[3]
		for b := 0; b < n; b++ {
			for ch := 0; ch < c; ch++ {
				enc := p.Codec.Encode(bias[ch])
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					out.V[base+i] += enc
				}
			}
		}
	}
	return out, nil
}

// AddBiasVec adds a public bias vector to an N×D share (for linear layers).
func (p *Party) AddBiasVec(x Share, bias []float64) (Share, error) {
	if len(x.Shape) != 2 || x.Shape[1] != len(bias) {
		return Share{}, fmt.Errorf("mpc: bias length %d vs share %v", len(bias), x.Shape)
	}
	out := x.Clone()
	if p.ID == 0 {
		n, d := x.Shape[0], x.Shape[1]
		for b := 0; b < n; b++ {
			for j := 0; j < d; j++ {
				out.V[b*d+j] += p.Codec.Encode(bias[j])
			}
		}
	}
	return out, nil
}

// EncodeTensor converts a float vector to ring encoding with the party's
// codec.
func (p *Party) EncodeTensor(vs []float64) []uint64 {
	return p.Codec.EncodeSlice(vs, nil)
}

// DecodeTensor converts ring values back to floats.
func (p *Party) DecodeTensor(xs []uint64) []float64 {
	return p.Codec.DecodeSlice(xs, nil)
}
