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
	opConv opKind = iota
	opDWConv
	opLinear
	opReLU
	opX2Act
	opMaxPool
	opAvgPool
	opGlobalAvgPool
	opFlatten
	opResidual
)

// progOp is one step of the compiled program.
type progOp struct {
	kind opKind
	// conv / dwconv / linear parameters (plaintext, owned by party 0;
	// shared during Setup).
	weights     []float64
	weightShape []int
	bias        []float64
	convSpec    tensor.ConvSpec
	groups      int
	// activation parameters (public, per the paper's X²act cost model).
	x2 mpc.X2ActParams
	// ReLU input bound recorded on the training set (0: none); mpc picks
	// the comparison's width from it.
	bound float64
	// pooling geometry.
	k, stride int
	// residual branches.
	body, shortcut *Program
	name           string
}

// Program is a compiled 2PC inference program.
type Program struct {
	Ops []progOp
}

// isLinear reports whether op is a linear (fixed-weight) op.
func (op *progOp) isLinear() bool {
	return op.kind == opConv || op.kind == opDWConv || op.kind == opLinear
}

// sharesHead reports whether a residual's body and shortcut both start
// with a linear op on the block input, which the engine then runs as one
// op under one activation mask.
func (op *progOp) sharesHead() bool {
	return op.kind == opResidual && op.shortcut != nil &&
		len(op.body.Ops) > 0 && op.body.Ops[0].isLinear() &&
		len(op.shortcut.Ops) > 0 && op.shortcut.Ops[0].isLinear()
}

// NumSecretTensors returns how many weight tensors Setup will share.
func (p *Program) NumSecretTensors() int {
	n := 0
	for _, op := range p.Ops {
		switch {
		case op.isLinear():
			n++
		case op.kind == opResidual:
			n += op.body.NumSecretTensors()
			if op.shortcut != nil {
				n += op.shortcut.NumSecretTensors()
			}
		}
	}
	return n
}

// Compile lowers a trained network into a 2PC program. Batch
// normalization layers are folded into the preceding convolution using
// their running statistics; the network must therefore be in its final
// (trained) state.
func Compile(net *nn.Network) (*Program, error) {
	seq, ok := net.Root.(*nn.Sequential)
	if !ok {
		return nil, fmt.Errorf("pi: root layer must be *nn.Sequential, got %T", net.Root)
	}
	return compileSeq(seq.Layers)
}

func compileSeq(layers []nn.Layer) (*Program, error) {
	prog := &Program{}
	i := 0
	for i < len(layers) {
		l := layers[i]
		switch v := l.(type) {
		case *nn.Conv2D:
			op := progOp{
				kind:        opConv,
				convSpec:    v.Spec,
				name:        v.Weight.Name,
				weightShape: v.Weight.W.Shape,
			}
			w := v.Weight.W
			var bias []float64
			if v.Bias != nil {
				bias = append([]float64(nil), v.Bias.W.Data...)
			}
			// Fold a following BatchNorm2D.
			if i+1 < len(layers) {
				if bn, ok := layers[i+1].(*nn.BatchNorm2D); ok {
					w, bias = bn.FoldInto(w, bias)
					i++
				}
			}
			op.weights = w.Data
			op.bias = bias
			prog.Ops = append(prog.Ops, op)
		case *nn.DepthwiseConv2D:
			op := progOp{
				kind:        opDWConv,
				groups:      v.C,
				name:        v.Weight.Name,
				weightShape: v.Weight.W.Shape,
				convSpec: tensor.ConvSpec{
					InC: v.C, OutC: v.C, KH: v.KH, KW: v.KW, Stride: v.Stride, Pad: v.Pad,
				},
			}
			// Depthwise weight C×K×K is logically OutC×1×K×K.
			w := v.Weight.W.Reshape(v.C, 1, v.KH, v.KW)
			var bias []float64
			if i+1 < len(layers) {
				if bn, ok := layers[i+1].(*nn.BatchNorm2D); ok {
					w, bias = bn.FoldInto(w, nil)
					i++
				}
			}
			op.weights = w.Data
			op.bias = bias
			prog.Ops = append(prog.Ops, op)
		case *nn.BatchNorm2D:
			return nil, fmt.Errorf("pi: batchnorm at %d not preceded by a convolution", i)
		case *nn.Linear:
			prog.Ops = append(prog.Ops, progOp{
				kind:        opLinear,
				weights:     v.Weight.W.Data,
				weightShape: v.Weight.W.Shape,
				bias:        append([]float64(nil), v.Bias.W.Data...),
				name:        v.Weight.Name,
			})
		case *nn.ReLU:
			prog.Ops = append(prog.Ops, progOp{kind: opReLU, name: "relu", bound: v.Bound})
		case *nn.X2Act:
			prog.Ops = append(prog.Ops, progOp{
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
			prog.Ops = append(prog.Ops, progOp{kind: opMaxPool, k: v.KH, stride: v.Stride, name: "maxpool"})
		case *nn.AvgPool:
			prog.Ops = append(prog.Ops, progOp{kind: opAvgPool, k: v.KH, stride: v.Stride, name: "avgpool"})
		case *nn.GlobalAvgPool:
			prog.Ops = append(prog.Ops, progOp{kind: opGlobalAvgPool, name: "gap"})
		case *nn.Flatten:
			prog.Ops = append(prog.Ops, progOp{kind: opFlatten, name: "flatten"})
		case *nn.Identity:
			// no-op
		case *nn.Sequential:
			sub, err := compileSeq(v.Layers)
			if err != nil {
				return nil, err
			}
			prog.Ops = append(prog.Ops, sub.Ops...)
		case *nn.Residual:
			op := progOp{kind: opResidual, name: "residual"}
			body, err := compileResidualBranch(v.Body)
			if err != nil {
				return nil, err
			}
			op.body = body
			if v.Shortcut != nil {
				sc, err := compileResidualBranch(v.Shortcut)
				if err != nil {
					return nil, err
				}
				op.shortcut = sc
			}
			if v.PostAct != nil {
				return nil, fmt.Errorf("pi: residual PostAct must be a separate layer for compilation")
			}
			prog.Ops = append(prog.Ops, op)
		default:
			return nil, fmt.Errorf("pi: cannot compile layer type %T", l)
		}
		i++
	}
	return prog, nil
}

func compileResidualBranch(l nn.Layer) (*Program, error) {
	if seq, ok := l.(*nn.Sequential); ok {
		return compileSeq(seq.Layers)
	}
	return compileSeq([]nn.Layer{l})
}
