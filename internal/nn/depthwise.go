package nn

import (
	"math"

	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// DepthwiseConv2D convolves each channel with its own K×K kernel
// (groups == channels), the building block of MobileNetV2's inverted
// residuals. Weight shape is C×KH×KW.
type DepthwiseConv2D struct {
	// C is the channel count; KH/KW/Stride/Pad the geometry.
	C, KH, KW, Stride, Pad int
	Weight                 *Param

	x *tensor.Tensor
}

// NewDepthwiseConv2D constructs the layer with He-normal initialization.
func NewDepthwiseConv2D(name string, c, k, stride, pad int, r *rng.RNG) *DepthwiseConv2D {
	l := &DepthwiseConv2D{C: c, KH: k, KW: k, Stride: stride, Pad: pad,
		Weight: NewParam(name+".weight", c, k, k)}
	l.Weight.W.RandNorm(r, math.Sqrt(2/float64(k*k)))
	return l
}

// spec returns the grouped convolution geometry (groups == channels)
// that routes the layer through the shared conv/GEMM kernel.
func (l *DepthwiseConv2D) spec() tensor.ConvSpec {
	return tensor.ConvSpec{
		InC: l.C, OutC: l.C, KH: l.KH, KW: l.KW,
		Stride: l.Stride, Pad: l.Pad, Groups: l.C,
	}
}

// Forward implements Layer.
func (l *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.x = x
	}
	return tensor.Conv2D(x, l.Weight.W, l.spec())
}

// Backward implements Layer.
func (l *DepthwiseConv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	dx, dk := tensor.Conv2DGrads(l.x, l.Weight.W, gy, l.spec())
	tensor.AxpyInto(l.Weight.G, dk, 1)
	return dx
}

// Params implements Layer.
func (l *DepthwiseConv2D) Params() []*Param { return []*Param{l.Weight} }
