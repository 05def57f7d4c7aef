// Package pi is PASNet's private-inference engine: it compiles a trained
// plaintext model into a two-party program (folding batch normalization
// into the preceding convolution, as the paper does), executes it with the
// mpc protocol suite over a real transport, verifies the ciphertext result
// against plaintext evaluation, and reports measured communication along
// with the hardware-modelled latency and energy of the paper's tables.
package pi

import (
	"fmt"

	"pasnet/internal/mpc"
	"pasnet/internal/nn"
	"pasnet/internal/tensor"
)

// opKind enumerates compiled 2PC operations.
type opKind int

const (
	opLinear opKind = iota
	opReLU
	opX2Act
	opMaxPool
	opAvgPool
	opGlobalAvgPool
	opFlatten
	opAdd
)

// headKind is the form of one linear head's weights.
type headKind int

const (
	headConv headKind = iota
	headDWConv
	headFC
)

// linearHead is one entry of the weight table: a linear layer's
// plaintext parameters, owned by party 0 and shared during Setup.
type linearHead struct {
	kind     headKind
	weights  []float64
	shape    []int
	bias     []float64
	convSpec tensor.ConvSpec
	name     string
}

// progOp is one step of the compiled program. It reads the values in in
// and writes the values in out.
type progOp struct {
	kind    opKind
	in, out []int
	// slots are a linear op's weight-table entries, one per output. Two
	// slots are a residual's body and shortcut heads, run on one input
	// under one activation mask.
	slots []int
	// activation parameters (public, per the paper's X²act cost model).
	x2 mpc.X2ActParams
	// ReLU input bound recorded on the training set (0: none); mpc picks
	// the comparison's width from it.
	bound float64
	// pooling geometry.
	k, stride int
	name      string
}

// Program is a compiled 2PC inference program: a weight table in slot
// order and a flat op list. Value 0 holds the flush input and, after the
// last op, the output.
type Program struct {
	// Ops is the op list in execution order.
	Ops []progOp
	// weights is the weight table; an entry's index is its mask slot.
	weights []linearHead
	// maxValue is the highest value ID an op names.
	maxValue int
}

// NumSecretTensors returns how many weight tensors Setup will share.
func (p *Program) NumSecretTensors() int { return len(p.weights) }

// Compile lowers a trained network into a 2PC program. Batch
// normalization layers are folded into the preceding convolution using
// their running statistics; the network must therefore be in its final
// (trained) state.
//
// Weight slots are assigned in layer order, depth-first through residual
// blocks, the body before the shortcut. A residual becomes its body's
// ops, its shortcut's ops and an add; when both branches start with a
// linear op, the two heads become one linear op with both slots.
func Compile(net *nn.Network) (*Program, error) {
	seq, ok := net.Root.(*nn.Sequential)
	if !ok {
		return nil, fmt.Errorf("pi: root layer must be *nn.Sequential, got %T", net.Root)
	}
	prog := &Program{}
	if _, err := prog.lower(seq.Layers, 0, 0, 0); err != nil {
		return nil, err
	}
	return prog, nil
}

// lower appends the ops of layers: the first reads value in, and each op
// writes value dst, the input of the next. Values above top are free for
// residual branches. It returns the value holding the result — in, if the
// layers emit no op.
func (p *Program) lower(layers []nn.Layer, in, dst, top int) (int, error) {
	cur := in
	emit := func(op progOp) {
		op.in, op.out = []int{cur}, []int{dst}
		p.Ops = append(p.Ops, op)
		cur = dst
	}
	head := func(h linearHead) {
		p.weights = append(p.weights, h)
		emit(progOp{kind: opLinear, slots: []int{len(p.weights) - 1}, name: h.name})
	}
	// foldBN folds a batch normalization that follows layer i into w and
	// bias, reporting whether it did.
	foldBN := func(i int, w *tensor.Tensor, bias []float64) ([]float64, []float64, bool) {
		if i+1 < len(layers) {
			if bn, ok := layers[i+1].(*nn.BatchNorm2D); ok {
				w, bias = bn.FoldInto(w, bias)
				return w.Data, bias, true
			}
		}
		return w.Data, bias, false
	}
	for i := 0; i < len(layers); i++ {
		var err error
		switch v := layers[i].(type) {
		case *nn.Conv2D:
			var bias []float64
			if v.Bias != nil {
				bias = append([]float64(nil), v.Bias.W.Data...)
			}
			h := linearHead{kind: headConv, convSpec: v.Spec, name: v.Weight.Name, shape: v.Weight.W.Shape}
			var folded bool
			if h.weights, h.bias, folded = foldBN(i, v.Weight.W, bias); folded {
				i++
			}
			head(h)
		case *nn.DepthwiseConv2D:
			h := linearHead{
				kind: headDWConv, name: v.Weight.Name, shape: v.Weight.W.Shape,
				convSpec: tensor.ConvSpec{InC: v.C, OutC: v.C, KH: v.KH, KW: v.KW, Stride: v.Stride, Pad: v.Pad},
			}
			// Depthwise weight C×K×K is logically OutC×1×K×K.
			var folded bool
			if h.weights, h.bias, folded = foldBN(i, v.Weight.W.Reshape(v.C, 1, v.KH, v.KW), nil); folded {
				i++
			}
			head(h)
		case *nn.BatchNorm2D:
			return 0, fmt.Errorf("pi: batchnorm at %d not preceded by a convolution", i)
		case *nn.Linear:
			head(linearHead{
				kind:    headFC,
				weights: v.Weight.W.Data,
				shape:   v.Weight.W.Shape,
				bias:    append([]float64(nil), v.Bias.W.Data...),
				name:    v.Weight.Name,
			})
		case *nn.ReLU:
			emit(progOp{kind: opReLU, name: "relu", bound: v.Bound})
		case *nn.X2Act:
			emit(progOp{
				kind: opX2Act,
				name: v.W1.Name,
				x2: mpc.X2ActParams{
					// Effective quadratic coefficient folds in c/√Nx.
					W1:    v.Scale() * v.W1.W.Data[0],
					W2:    v.W2.W.Data[0],
					B:     v.B.W.Data[0],
					Scale: 1,
				},
			})
		case *nn.MaxPool:
			emit(progOp{kind: opMaxPool, k: v.KH, stride: v.Stride, name: "maxpool"})
		case *nn.AvgPool:
			emit(progOp{kind: opAvgPool, k: v.KH, stride: v.Stride, name: "avgpool"})
		case *nn.GlobalAvgPool:
			emit(progOp{kind: opGlobalAvgPool, name: "gap"})
		case *nn.Flatten:
			emit(progOp{kind: opFlatten, name: "flatten"})
		case *nn.Identity:
			// no-op
		case *nn.Sequential:
			cur, err = p.lower(v.Layers, cur, dst, top)
		case *nn.Residual:
			cur, err = p.residual(v, cur, dst, top)
		default:
			return 0, fmt.Errorf("pi: cannot compile layer type %T", layers[i])
		}
		if err != nil {
			return 0, err
		}
	}
	return cur, nil
}

// residual appends a residual block on value in, writing its sum to dst.
// The branches run in the two values above top, so the block input
// outlives the body, and so does the shortcut's value, which a joined
// head writes before the body runs. When each branch's first op is a
// linear op of its own (not one inside a nested block), the shortcut
// head joins the body head's op.
func (p *Program) residual(r *nn.Residual, in, dst, top int) (int, error) {
	if r.PostAct != nil {
		return 0, fmt.Errorf("pi: residual PostAct must be a separate layer for compilation")
	}
	body, short := top+1, top+2
	p.maxValue = max(p.maxValue, short)
	bodyAt := len(p.Ops)
	bodyOut, err := p.lower(branch(r.Body), in, body, short)
	if err != nil {
		return 0, err
	}
	shortAt, shortOut := len(p.Ops), in
	if r.Shortcut != nil {
		if shortOut, err = p.lower(branch(r.Shortcut), in, short, short); err != nil {
			return 0, err
		}
	}
	startsWithHead := func(at, v int) bool {
		return at < len(p.Ops) && p.Ops[at].kind == opLinear && p.Ops[at].out[0] == v
	}
	if startsWithHead(bodyAt, body) && startsWithHead(shortAt, short) {
		b, s := &p.Ops[bodyAt], p.Ops[shortAt]
		b.slots = append(b.slots, s.slots[0])
		b.out = append(b.out, s.out[0])
		p.Ops = append(p.Ops[:shortAt], p.Ops[shortAt+1:]...)
	}
	p.Ops = append(p.Ops, progOp{kind: opAdd, in: []int{bodyOut, shortOut}, out: []int{dst}, name: "residual"})
	return dst, nil
}

// branch returns a residual branch's layers.
func branch(l nn.Layer) []nn.Layer {
	if seq, ok := l.(*nn.Sequential); ok {
		return seq.Layers
	}
	return []nn.Layer{l}
}
