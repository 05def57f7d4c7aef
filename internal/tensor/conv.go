package tensor

import (
	"fmt"
	"math"

	"pasnet/internal/kernel"
)

// ConvSpec describes a 2-D convolution (or pooling window) geometry.
type ConvSpec struct {
	// InC and OutC are the input and output channel counts.
	InC, OutC int
	// KH and KW are the kernel height and width.
	KH, KW int
	// Stride is applied to both spatial dimensions.
	Stride int
	// Pad is symmetric zero padding on both spatial dimensions.
	Pad int
	// Groups is the group count (0 or 1 dense; InC == OutC == Groups is a
	// depthwise convolution). Kernel layout is OutC×(InC/Groups)×KH×KW.
	Groups int
}

// shape converts the spec to the kernel package's conv shape for a batch
// of n images of size h×w.
func (s ConvSpec) shape(n, h, w int) kernel.ConvShape {
	return kernel.ConvShape{
		N: n, InC: s.InC, H: h, W: w,
		OutC: s.OutC, KH: s.KH, KW: s.KW,
		Stride: s.Stride, Pad: s.Pad, Groups: s.Groups,
	}
}

// groups returns the normalized group count.
func (s ConvSpec) groups() int { return kernel.NormGroups(s.Groups) }

// OutSize returns the output spatial size for an input of size h×w. The
// arithmetic lives in kernel.ConvShape so the geometry rules exist in one
// place.
func (s ConvSpec) OutSize(h, w int) (oh, ow int) {
	return s.shape(1, h, w).OutHW()
}

// Conv2D computes a 2-D convolution of x (N×InC×H×W) with kernel
// k (OutC×(InC/Groups)×KH×KW), returning N×OutC×OH×OW. It runs on the
// shared im2col/GEMM kernel (kernel.SetNaive restores the scalar
// reference loops). Depthwise kernels may drop the singleton channel dim
// (OutC×KH×KW).
func Conv2D(x, k *Tensor, s ConvSpec) *Tensor {
	n, _, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	icg := s.InC / s.groups()
	ok4 := len(k.Shape) == 4 && k.Shape[0] == s.OutC && k.Shape[1] == icg &&
		k.Shape[2] == s.KH && k.Shape[3] == s.KW
	ok3 := len(k.Shape) == 3 && s.groups() == s.InC && k.Shape[0] == s.OutC &&
		k.Shape[1] == s.KH && k.Shape[2] == s.KW
	if !ok4 && !ok3 {
		panic(fmt.Sprintf("tensor: kernel shape %v does not match spec %+v", k.Shape, s))
	}
	oh, ow := s.OutSize(h, w)
	out := New(n, s.OutC, oh, ow)
	kernel.Conv2D(out.Data, x.Data, k.Data, s.shape(n, h, w))
	return out
}

// Conv2DGrads computes the input and kernel gradients of Conv2D given the
// output gradient gy (N×OutC×OH×OW). It returns (dx, dk).
func Conv2DGrads(x, k, gy *Tensor, s ConvSpec) (dx, dk *Tensor) {
	n, _, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	dx = New(x.Shape...)
	dk = New(k.Shape...)
	kernel.Conv2DGrads(dx.Data, dk.Data, x.Data, k.Data, gy.Data, s.shape(n, h, w))
	return dx, dk
}

// poolOutHW returns the output size of a kh×kw/stride pool over an h×w
// map. A window larger than the map has no valid position; Go's truncating
// division would still report one, so reject it here rather than index
// past the map.
func poolOutHW(h, w, kh, kw, stride int) (oh, ow int) {
	if h < kh || w < kw {
		panic(fmt.Sprintf("tensor: pool window %dx%d exceeds %dx%d feature map", kh, kw, h, w))
	}
	return (h-kh)/stride + 1, (w-kw)/stride + 1
}

// MaxPool2D computes max pooling and returns the output along with the
// argmax index (flat, into x.Data) per output element for backprop.
func MaxPool2D(x *Tensor, kh, kw, stride int) (*Tensor, []int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := poolOutHW(h, w, kh, kw, stride)
	out := New(n, c, oh, ow)
	arg := make([]int, out.Len())
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx
							idx := base + iy*w + ix
							if v := x.Data[idx]; v > best {
								best = v
								bestIdx = idx
							}
						}
					}
					out.Data[oi] = best
					arg[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out, arg
}

// MaxPool2DGrad scatters the output gradient back through the argmax map.
func MaxPool2DGrad(gy *Tensor, arg []int, xShape []int) *Tensor {
	dx := New(xShape...)
	for i, idx := range arg {
		dx.Data[idx] += gy.Data[i]
	}
	return dx
}

// AvgPool2D computes average pooling over kh×kw windows with the given
// stride.
func AvgPool2D(x *Tensor, kh, kw, stride int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := poolOutHW(h, w, kh, kw, stride)
	out := New(n, c, oh, ow)
	inv := 1.0 / float64(kh*kw)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky
						for kx := 0; kx < kw; kx++ {
							s += x.Data[base+iy*w+ox*stride+kx]
						}
					}
					out.Data[oi] = s * inv
					oi++
				}
			}
		}
	}
	return out
}

// AvgPool2DGrad spreads the output gradient uniformly over each window.
func AvgPool2DGrad(gy *Tensor, kh, kw, stride int, xShape []int) *Tensor {
	dx := New(xShape...)
	n, c, h, w := xShape[0], xShape[1], xShape[2], xShape[3]
	oh, ow := poolOutHW(h, w, kh, kw, stride)
	inv := 1.0 / float64(kh*kw)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gy.Data[oi] * inv
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky
						for kx := 0; kx < kw; kx++ {
							dx.Data[base+iy*w+ox*stride+kx] += g
						}
					}
					oi++
				}
			}
		}
	}
	return dx
}
