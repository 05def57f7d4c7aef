package pi

import (
	"pasnet/internal/hwmodel"
)

// traceOp derives the hwmodel identity of a compiled op from its input
// share geometry, mirroring how models.builder records the op list (so a
// traced key matches the corresponding NetOp's). A residual block traces
// as its Add, at the branch output geometry the engine passes as inShape;
// flatten has no hwmodel identity and is never traced.
func traceOp(op *progOp, inShape []int) (hwmodel.OpKind, hwmodel.OpShape) {
	switch op.kind {
	case opConv, opDWConv:
		fi, ic := inShape[2], inShape[1]
		k, stride, pad := op.convSpec.KH, op.convSpec.Stride, op.convSpec.Pad
		fo := (fi+2*pad-k)/stride + 1
		shape := hwmodel.OpShape{FI: fi, IC: ic, OC: op.convSpec.OutC, K: k, Stride: stride, FO: fo}
		if op.kind == opDWConv {
			shape.OC = ic
			shape.Groups = ic
		}
		return hwmodel.OpConv, shape
	case opLinear:
		return hwmodel.OpFC, hwmodel.OpShape{IC: inShape[1], OC: op.weightShape[0]}
	case opReLU:
		return hwmodel.OpReLU, actShape(inShape)
	case opX2Act:
		return hwmodel.OpX2Act, actShape(inShape)
	case opMaxPool:
		return hwmodel.OpMaxPool, hwmodel.OpShape{FI: inShape[2], IC: inShape[1], K: op.k, Stride: op.stride}
	case opAvgPool:
		return hwmodel.OpAvgPool, hwmodel.OpShape{FI: inShape[2], IC: inShape[1], K: op.k, Stride: op.stride}
	case opGlobalAvgPool:
		return hwmodel.OpAvgPool, hwmodel.OpShape{FI: inShape[2], IC: inShape[1], K: inShape[2], Stride: 1}
	case opResidual:
		return hwmodel.OpAdd, hwmodel.OpShape{FI: inShape[2], IC: inShape[1]}
	}
	return hwmodel.OpIdentity, hwmodel.OpShape{}
}

// actShape maps an activation input to its op geometry. Activations are 4D
// in every backbone; the 2D fallback (post-flatten) records FI=1 so
// Elems() still counts the vector length.
func actShape(inShape []int) hwmodel.OpShape {
	if len(inShape) == 4 {
		return hwmodel.OpShape{FI: inShape[2], IC: inShape[1]}
	}
	return hwmodel.OpShape{FI: 1, IC: inShape[len(inShape)-1]}
}
