package nn

import (
	"math"

	"pasnet/internal/tensor"
)

// Sequential chains layers in order.
type Sequential struct {
	Layers []Layer
}

// NewSequential wraps a layer list.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(gy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gy = s.Layers[i].Backward(gy)
	}
	return gy
}

// Params implements Layer.
func (s *Sequential) Params() []*Param { return ParamsOf(s.Layers) }

// Residual computes Body(x) + Shortcut(x). A nil Shortcut is identity.
// It implements ResNet basic/bottleneck blocks and MobileNetV2 inverted
// residuals.
type Residual struct {
	Body     Layer
	Shortcut Layer
	// PostAct is applied after the addition (nil for none), e.g. the
	// block-final ReLU/X²act of ResNet.
	PostAct Layer
}

// NewResidual builds a residual block.
func NewResidual(body, shortcut, postAct Layer) *Residual {
	return &Residual{Body: body, Shortcut: shortcut, PostAct: postAct}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.Body.Forward(x, train)
	var sc *tensor.Tensor
	if r.Shortcut != nil {
		sc = r.Shortcut.Forward(x, train)
	} else {
		sc = x
	}
	out := tensor.Add(y, sc)
	if r.PostAct != nil {
		out = r.PostAct.Forward(out, train)
	}
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(gy *tensor.Tensor) *tensor.Tensor {
	if r.PostAct != nil {
		gy = r.PostAct.Backward(gy)
	}
	dxBody := r.Body.Backward(gy)
	var dxShort *tensor.Tensor
	if r.Shortcut != nil {
		dxShort = r.Shortcut.Backward(gy)
	} else {
		dxShort = gy
	}
	return tensor.Add(dxBody, dxShort)
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	if r.PostAct != nil {
		ps = append(ps, r.PostAct.Params()...)
	}
	return ps
}

// Network is a trainable model: a root layer plus cached parameter lists.
type Network struct {
	// Root is the top-level layer graph.
	Root Layer
	// params caches the collected parameter list.
	params []*Param
}

// NewNetwork wraps a root layer.
func NewNetwork(root Layer) *Network {
	return &Network{Root: root, params: root.Params()}
}

// Forward runs the network.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.Root.Forward(x, train)
}

// Backward back-propagates from the loss gradient.
func (n *Network) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return n.Root.Backward(gy)
}

// Params returns all trainable parameters.
func (n *Network) Params() []*Param { return n.params }

// Weights returns the non-architecture parameters.
func (n *Network) Weights() []*Param { return WeightParams(n.params) }

// Arch returns the architecture parameters.
func (n *Network) Arch() []*Param { return ArchParams(n.params) }

// ZeroGrad clears all gradients.
func (n *Network) ZeroGrad() { ZeroGrads(n.params) }

// GradNorm returns the L2 norm of the weight gradients (diagnostics).
func (n *Network) GradNorm() float64 {
	var s float64
	for _, p := range n.Weights() {
		for _, g := range p.G.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ReLUs returns the network's ReLU layers in forward order, through
// sequences and both residual branches.
func (n *Network) ReLUs() []*ReLU {
	var out []*ReLU
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *ReLU:
			out = append(out, v)
		case *Sequential:
			for _, c := range v.Layers {
				walk(c)
			}
		case *Residual:
			for _, c := range []Layer{v.Body, v.Shortcut, v.PostAct} {
				if c != nil {
					walk(c)
				}
			}
		}
	}
	walk(n.Root)
	return out
}

// RecordReLUBounds sets every ReLU layer's Bound to the largest |input|
// it sees while the batches batch(0), batch(1), … — up to the first nil —
// run forward in eval mode, and returns how many ReLU layers there are. A
// network without one runs no batch.
func (n *Network) RecordReLUBounds(batch func(i int) *tensor.Tensor) int {
	relus := n.ReLUs()
	if len(relus) == 0 {
		return 0
	}
	for _, l := range relus {
		l.Bound, l.recording = 0, true
	}
	for i := 0; ; i++ {
		x := batch(i)
		if x == nil {
			break
		}
		n.Forward(x, false)
	}
	for _, l := range relus {
		l.recording = false
	}
	return len(relus)
}
