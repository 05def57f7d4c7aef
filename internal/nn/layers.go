package nn

import (
	"fmt"
	"math"

	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// Conv2D is a 2-D convolution layer with optional bias.
type Conv2D struct {
	// Spec is the convolution geometry.
	Spec tensor.ConvSpec
	// Weight has shape OutC×InC×KH×KW; Bias (optional) has shape OutC.
	Weight *Param
	Bias   *Param

	x *tensor.Tensor // cached input
}

// NewConv2D constructs a conv layer with He-normal initialization.
func NewConv2D(name string, spec tensor.ConvSpec, withBias bool, r *rng.RNG) *Conv2D {
	c := &Conv2D{
		Spec:   spec,
		Weight: NewParam(name+".weight", spec.OutC, spec.InC, spec.KH, spec.KW),
	}
	fanIn := float64(spec.InC * spec.KH * spec.KW)
	c.Weight.W.RandNorm(r, math.Sqrt(2/fanIn))
	if withBias {
		c.Bias = NewParam(name+".bias", spec.OutC)
	}
	return c
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		c.x = x
	}
	y := tensor.Conv2D(x, c.Weight.W, c.Spec)
	if c.Bias != nil {
		n, oc := y.Shape[0], y.Shape[1]
		hw := y.Shape[2] * y.Shape[3]
		for b := 0; b < n; b++ {
			for ch := 0; ch < oc; ch++ {
				bv := c.Bias.W.Data[ch]
				base := (b*oc + ch) * hw
				for i := 0; i < hw; i++ {
					y.Data[base+i] += bv
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	dx, dk := tensor.Conv2DGrads(c.x, c.Weight.W, gy, c.Spec)
	tensor.AxpyInto(c.Weight.G, dk, 1)
	if c.Bias != nil {
		n, oc := gy.Shape[0], gy.Shape[1]
		hw := gy.Shape[2] * gy.Shape[3]
		for b := 0; b < n; b++ {
			for ch := 0; ch < oc; ch++ {
				s := 0.0
				base := (b*oc + ch) * hw
				for i := 0; i < hw; i++ {
					s += gy.Data[base+i]
				}
				c.Bias.G.Data[ch] += s
			}
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// Linear is a fully-connected layer y = x Wᵀ + b.
type Linear struct {
	Weight *Param // Out×In
	Bias   *Param // Out
	x      *tensor.Tensor
}

// NewLinear constructs a linear layer with He-normal initialization.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	l := &Linear{
		Weight: NewParam(name+".weight", out, in),
		Bias:   NewParam(name+".bias", out),
	}
	l.Weight.W.RandNorm(r, math.Sqrt(2/float64(in)))
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.x = x
	}
	y := tensor.MatMulTransB(x, l.Weight.W)
	n, out := y.Shape[0], y.Shape[1]
	for b := 0; b < n; b++ {
		for j := 0; j < out; j++ {
			y.Data[b*out+j] += l.Bias.W.Data[j]
		}
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(gy *tensor.Tensor) *tensor.Tensor {
	// dW = gyᵀ @ x ; dx = gy @ W ; db = column sums of gy.
	dW := tensor.MatMulTransA(gy, l.x)
	tensor.AxpyInto(l.Weight.G, dW, 1)
	n, out := gy.Shape[0], gy.Shape[1]
	for b := 0; b < n; b++ {
		for j := 0; j < out; j++ {
			l.Bias.G.Data[j] += gy.Data[b*out+j]
		}
	}
	return tensor.MatMul(gy, l.Weight.W)
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// ReLU is the rectified linear activation.
type ReLU struct {
	// Bound is model data: the largest |input| the layer saw on the
	// training set in eval mode (see Network.RecordReLUBounds), 0 when none
	// was recorded. The 2PC comparison sizes itself to it.
	Bound float64

	mask      []bool
	recording bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.recording {
		for _, v := range x.Data {
			l.Bound = math.Max(l.Bound, math.Abs(v))
		}
	}
	y := tensor.New(x.Shape...)
	if train {
		l.mask = make([]bool, x.Len())
	}
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			if train {
				l.mask[i] = true
			}
		}
	}
	return y
}

// Backward implements Layer.
func (l *ReLU) Backward(gy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(gy.Shape...)
	for i, m := range l.mask {
		if m {
			dx.Data[i] = gy.Data[i]
		}
	}
	return dx
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// X2ActC is the constant c in the X²act gradient-balancing scale c/√Nx.
const X2ActC = 8.0

// X2Act is the trainable second-order polynomial activation of paper
// Eq. 4: δ(x) = (c/√Nx)·w1·x² + w2·x + b, where Nx is the per-sample
// feature-map element count. The c/√Nx factor scales the quadratic term so
// ∂L/∂w1 matches the update magnitude of ordinary weights (Sec. III-A
// "Learning rate").
type X2Act struct {
	// W1, W2, B are the scalar trainable coefficients.
	W1, W2, B *Param
	// Nx is fixed at construction from the layer's feature-map size.
	Nx int
	// Frozen pins the coefficients (the DELPHI-style fixed quadratic):
	// Params returns nothing so optimizers never touch them.
	Frozen bool

	x *tensor.Tensor
}

// NewX2Act constructs the activation with STPAI (straight-through
// polynomial activation initialization): w1 and b start near zero and w2
// near one, so the layer initially behaves as identity and inherits the
// pretrained/backbone signal path.
func NewX2Act(name string, nx int) *X2Act {
	a := &X2Act{
		W1: NewParam(name + ".w1"),
		W2: NewParam(name + ".w2"),
		B:  NewParam(name + ".b"),
		Nx: nx,
	}
	a.ApplySTPAI()
	return a
}

// ApplySTPAI resets the coefficients to the straight-through init: w1 and
// b near zero, w2 near one (paper Sec. III-A). The quadratic coefficient
// starts small; stability of deep all-polynomial stacks is sensitive to
// it, which is exactly the instability STPAI exists to avoid.
func (a *X2Act) ApplySTPAI() {
	a.W1.W.Data[0] = 0.01
	a.W2.W.Data[0] = 1.0
	a.B.W.Data[0] = 0.0
}

// Scale returns the c/√Nx factor applied to the quadratic term.
func (a *X2Act) Scale() float64 { return X2ActC / math.Sqrt(float64(a.Nx)) }

// Forward implements Layer.
func (a *X2Act) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		a.x = x
	}
	k := a.Scale() * a.W1.W.Data[0]
	w2 := a.W2.W.Data[0]
	b := a.B.W.Data[0]
	y := tensor.New(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = k*v*v + w2*v + b
	}
	return y
}

// Backward implements Layer.
func (a *X2Act) Backward(gy *tensor.Tensor) *tensor.Tensor {
	s := a.Scale()
	k := s * a.W1.W.Data[0]
	w2 := a.W2.W.Data[0]
	dx := tensor.New(gy.Shape...)
	var dw1, dw2, db float64
	for i, g := range gy.Data {
		v := a.x.Data[i]
		dw1 += g * s * v * v
		dw2 += g * v
		db += g
		dx.Data[i] = g * (2*k*v + w2)
	}
	a.W1.G.Data[0] += dw1
	a.W2.G.Data[0] += dw2
	a.B.G.Data[0] += db
	return dx
}

// Params implements Layer.
func (a *X2Act) Params() []*Param {
	if a.Frozen {
		return nil
	}
	return []*Param{a.W1, a.W2, a.B}
}

// MaxPool is a max-pooling layer.
type MaxPool struct {
	KH, KW, Stride int
	arg            []int
	xShape         []int
}

// NewMaxPool returns a kh×kw/stride max pooling layer.
func NewMaxPool(kh, kw, stride int) *MaxPool { return &MaxPool{KH: kh, KW: kw, Stride: stride} }

// Forward implements Layer.
func (l *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y, arg := tensor.MaxPool2D(x, l.KH, l.KW, l.Stride)
	if train {
		l.arg = arg
		l.xShape = x.Shape
	}
	return y
}

// Backward implements Layer.
func (l *MaxPool) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2DGrad(gy, l.arg, l.xShape)
}

// Params implements Layer.
func (l *MaxPool) Params() []*Param { return nil }

// AvgPool is an average-pooling layer.
type AvgPool struct {
	KH, KW, Stride int
	xShape         []int
}

// NewAvgPool returns a kh×kw/stride average pooling layer.
func NewAvgPool(kh, kw, stride int) *AvgPool { return &AvgPool{KH: kh, KW: kw, Stride: stride} }

// Forward implements Layer.
func (l *AvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.xShape = x.Shape
	}
	return tensor.AvgPool2D(x, l.KH, l.KW, l.Stride)
}

// Backward implements Layer.
func (l *AvgPool) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return tensor.AvgPool2DGrad(gy, l.KH, l.KW, l.Stride, l.xShape)
}

// Params implements Layer.
func (l *AvgPool) Params() []*Param { return nil }

// GlobalAvgPool averages each channel over its full spatial extent and
// flattens to N×C.
type GlobalAvgPool struct {
	xShape []int
}

// NewGlobalAvgPool returns the layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.xShape = x.Shape
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := tensor.New(n, c)
	inv := 1.0 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			s := 0.0
			for i := 0; i < h*w; i++ {
				s += x.Data[base+i]
			}
			y.Data[b*c+ch] = s * inv
		}
	}
	return y
}

// Backward implements Layer.
func (l *GlobalAvgPool) Backward(gy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := l.xShape[0], l.xShape[1], l.xShape[2], l.xShape[3]
	dx := tensor.New(l.xShape...)
	inv := 1.0 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			g := gy.Data[b*c+ch] * inv
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				dx.Data[base+i] = g
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes N×C×H×W to N×(CHW).
type Flatten struct {
	xShape []int
}

// NewFlatten returns the layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.xShape = x.Shape
	}
	n := x.Shape[0]
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (l *Flatten) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return gy.Reshape(l.xShape...)
}

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// Identity passes its input through unchanged.
type Identity struct{}

// NewIdentity returns the layer.
func NewIdentity() *Identity { return &Identity{} }

// Forward implements Layer.
func (Identity) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// Backward implements Layer.
func (Identity) Backward(gy *tensor.Tensor) *tensor.Tensor { return gy }

// Params implements Layer.
func (Identity) Params() []*Param { return nil }

// BatchNorm2D normalizes per channel with trainable scale and shift,
// tracking running statistics for inference.
type BatchNorm2D struct {
	Gamma, Beta *Param
	// RunMean and RunVar are the exponential running statistics.
	RunMean, RunVar []float64
	// Momentum is the running-statistics update rate; Eps stabilizes the
	// variance denominator.
	Momentum, Eps float64

	x          *tensor.Tensor
	xhat       []float64
	mean, vari []float64
}

// NewBatchNorm2D constructs batch normalization over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		Gamma:    NewParam(name+".gamma", c),
		Beta:     NewParam(name+".beta", c),
		RunMean:  make([]float64, c),
		RunVar:   make([]float64, c),
		Momentum: 0.9,
		Eps:      1e-5,
	}
	bn.Gamma.W.Fill(1)
	for i := range bn.RunVar {
		bn.RunVar[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != bn.Gamma.W.Len() {
		panic(fmt.Sprintf("nn: batchnorm channels %d != %d", c, bn.Gamma.W.Len()))
	}
	y := tensor.New(x.Shape...)
	hw := h * w
	m := float64(n * hw)
	if train {
		bn.x = x
		bn.mean = make([]float64, c)
		bn.vari = make([]float64, c)
		bn.xhat = make([]float64, x.Len())
		for ch := 0; ch < c; ch++ {
			var sum float64
			for b := 0; b < n; b++ {
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					sum += x.Data[base+i]
				}
			}
			mu := sum / m
			var sq float64
			for b := 0; b < n; b++ {
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					d := x.Data[base+i] - mu
					sq += d * d
				}
			}
			v := sq / m
			bn.mean[ch], bn.vari[ch] = mu, v
			bn.RunMean[ch] = bn.Momentum*bn.RunMean[ch] + (1-bn.Momentum)*mu
			bn.RunVar[ch] = bn.Momentum*bn.RunVar[ch] + (1-bn.Momentum)*v
			inv := 1 / math.Sqrt(v+bn.Eps)
			g, be := bn.Gamma.W.Data[ch], bn.Beta.W.Data[ch]
			for b := 0; b < n; b++ {
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					xh := (x.Data[base+i] - mu) * inv
					bn.xhat[base+i] = xh
					y.Data[base+i] = g*xh + be
				}
			}
		}
		return y
	}
	for ch := 0; ch < c; ch++ {
		inv := 1 / math.Sqrt(bn.RunVar[ch]+bn.Eps)
		g, be := bn.Gamma.W.Data[ch], bn.Beta.W.Data[ch]
		mu := bn.RunMean[ch]
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				y.Data[base+i] = g*(x.Data[base+i]-mu)*inv + be
			}
		}
	}
	return y
}

// Backward implements Layer.
func (bn *BatchNorm2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	n, c := gy.Shape[0], gy.Shape[1]
	hw := gy.Shape[2] * gy.Shape[3]
	m := float64(n * hw)
	dx := tensor.New(gy.Shape...)
	for ch := 0; ch < c; ch++ {
		inv := 1 / math.Sqrt(bn.vari[ch]+bn.Eps)
		g := bn.Gamma.W.Data[ch]
		var dgamma, dbeta, sumG, sumGX float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				gyv := gy.Data[base+i]
				xh := bn.xhat[base+i]
				dgamma += gyv * xh
				dbeta += gyv
				sumG += gyv
				sumGX += gyv * xh
			}
		}
		bn.Gamma.G.Data[ch] += dgamma
		bn.Beta.G.Data[ch] += dbeta
		// dx = γ/√(v+ε) · (gy − mean(gy) − x̂·mean(gy·x̂))
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				gyv := gy.Data[base+i]
				xh := bn.xhat[base+i]
				dx.Data[base+i] = g * inv * (gyv - sumG/m - xh*sumGX/m)
			}
		}
	}
	return dx
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// FoldInto folds the normalization into preceding convolution weights and
// bias for inference export (the paper fuses BN into 2PC-Conv). It returns
// the folded kernel and per-channel bias; conv bias may be nil.
func (bn *BatchNorm2D) FoldInto(weight *tensor.Tensor, bias []float64) (*tensor.Tensor, []float64) {
	oc := weight.Shape[0]
	per := weight.Len() / oc
	folded := weight.Clone()
	outBias := make([]float64, oc)
	for ch := 0; ch < oc; ch++ {
		inv := 1 / math.Sqrt(bn.RunVar[ch]+bn.Eps)
		scale := bn.Gamma.W.Data[ch] * inv
		for i := 0; i < per; i++ {
			folded.Data[ch*per+i] *= scale
		}
		b := 0.0
		if bias != nil {
			b = bias[ch]
		}
		outBias[ch] = (b-bn.RunMean[ch])*scale + bn.Beta.W.Data[ch]
	}
	return folded, outBias
}
