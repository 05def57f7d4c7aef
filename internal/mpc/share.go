// Package mpc implements PASNet's semi-honest two-party computation layer:
// additive secret sharing over Z_{2^64}, a trusted dealer for Beaver-style
// correlated randomness, and the operator protocols of paper Sec. II-III —
// 2PC-Conv, 2PC-ReLU (comparison on dealer AND triples), 2PC-MaxPool,
// 2PC-AvgPool and 2PC-X²act.
//
// Both parties run the same program against a transport.Conn; party 0 is
// the model vendor, party 1 the client-facing server (paper Fig. 2/3).
// Fixed-point semantics come from package fixed; after every
// share-by-share multiplication the product is rescaled with the SecureML
// local-truncation trick (±1 LSB error with overwhelming probability for
// values far from the ring boundary).
package mpc

import (
	"fmt"

	"pasnet/internal/kernel"
	"pasnet/internal/rng"
)

// Share is one party's additive share of a secret tensor over Z_{2^64}.
// The secret equals the elementwise wrapping sum of the two parties' V.
type Share struct {
	// Shape mirrors the logical tensor shape (NCHW for images).
	Shape []int
	// V holds this party's share words in row-major order.
	V []uint64
}

// NewShare returns an all-zero share of the given shape.
func NewShare(shape ...int) Share {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return Share{Shape: append([]int(nil), shape...), V: make([]uint64, n)}
}

// Len returns the element count.
func (s Share) Len() int { return len(s.V) }

// Clone deep-copies the share.
func (s Share) Clone() Share {
	c := Share{Shape: append([]int(nil), s.Shape...), V: make([]uint64, len(s.V))}
	copy(c.V, s.V)
	return c
}

// Reshape returns a view with a new shape of identical size.
func (s Share) Reshape(shape ...int) Share {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(s.V) {
		panic(fmt.Sprintf("mpc: cannot reshape %v to %v", s.Shape, shape))
	}
	return Share{Shape: append([]int(nil), shape...), V: s.V}
}

// BitShare is one party's XOR share of a vector of N bits, packed 64 to a
// word: bit i is bit i%64 of W[i/64]. Bits past N in the last word are
// zero in everything the dealer, a store or a protocol hands out, so equal
// bit vectors are equal word slices.
type BitShare struct {
	N int
	W []uint64
}

// BitWords returns the word count of an n-bit BitShare.
func BitWords(n int) int { return (n + 63) / 64 }

// NewBitShare returns an all-zero share of n bits.
func NewBitShare(n int) BitShare {
	return BitShare{N: n, W: make([]uint64, BitWords(n))}
}

// Bit returns bit i.
func (b BitShare) Bit(i int) uint64 { return b.W[i>>6] >> (uint(i) & 63) & 1 }

// DrawBits draws n uniform bits off r as whole words — ceil(n/64) draws,
// bits past n then cleared. It is how Stream.Bits consumes a dealer
// stream, once per each of its three draws.
func DrawBits(r *rng.RNG, n int) BitShare {
	b := NewBitShare(n)
	r.FillUint64(b.W)
	if tail := uint(n) & 63; tail != 0 {
		b.W[len(b.W)-1] &= 1<<tail - 1
	}
	return b
}

// CombineShares reconstructs the secret from both halves.
func CombineShares(s0, s1 []uint64) []uint64 {
	out := make([]uint64, len(s0))
	for i := range s0 {
		out[i] = s0[i] + s1[i]
	}
	return out
}

// ring helpers over Z_{2^64} vectors. All of them delegate to the shared
// kernel package, which chunks large vectors across the worker pool and
// keeps small ones inline; Go's wrapping uint64 arithmetic is exactly the
// Z_{2^64} ring semantics.

func ringAdd(dst, a, b []uint64) { kernel.Add(dst, a, b) }

func ringSub(dst, a, b []uint64) { kernel.Sub(dst, a, b) }

func ringMul(dst, a, b []uint64) { kernel.Mul(dst, a, b) }

func ringScale(dst, a []uint64, s uint64) { kernel.Scale(dst, a, s) }

// ringMatMul computes the wrapping matrix product c = a(m×k) @ b(k×n) on
// the shared register-tiled parallel GEMM.
func ringMatMul(c, a, b []uint64, m, k, n int) {
	kernel.MatMul(c, a, b, m, k, n)
}

// matMulOp is ringMatMul at fixed dimensions, as a bilinear op.
func matMulOp(m, k, n int) func(c, a, b []uint64) {
	return func(c, a, b []uint64) { ringMatMul(c, a, b, m, k, n) }
}

// ConvDims captures the geometry of a ring convolution.
type ConvDims struct {
	// N, InC, H, W describe the input tensor.
	N, InC, H, W int
	// OutC, KH, KW describe the kernel.
	OutC, KH, KW int
	// Stride and Pad apply to both spatial dims.
	Stride, Pad int
	// Groups is the group count (0 or 1 dense; InC == OutC == Groups is a
	// depthwise convolution). Kernel layout is OutC x (InC/Groups) x KH x KW.
	Groups int
}

// OutHW returns the output spatial size.
func (d ConvDims) OutHW() (int, int) { return d.shape().OutHW() }

// InLen and KLen and OutLen return flat element counts. The arithmetic
// lives in kernel.ConvShape so the geometry rules exist in one place.
func (d ConvDims) InLen() int  { return d.shape().InLen() }
func (d ConvDims) KLen() int   { return d.shape().KLen() }
func (d ConvDims) OutLen() int { return d.shape().OutLen() }

// shape converts the geometry to the kernel package's conv shape.
func (d ConvDims) shape() kernel.ConvShape {
	return kernel.ConvShape{
		N: d.N, InC: d.InC, H: d.H, W: d.W,
		OutC: d.OutC, KH: d.KH, KW: d.KW,
		Stride: d.Stride, Pad: d.Pad, Groups: d.Groups,
	}
}

// ringConv2D computes a wrapping NCHW convolution: x (N,InC,H,W) with
// kernel k (OutC,InC/Groups,KH,KW) into out (N,OutC,OH,OW). It runs on the
// shared conv/GEMM kernel (kernel.SetNaive restores the scalar loops).
func ringConv2D(out, x, k []uint64, d ConvDims) {
	kernel.Conv2D(out, x, k, d.shape())
}

// convOp is ringConv2D at a fixed geometry, as a bilinear op.
func convOp(d ConvDims) func(out, x, k []uint64) {
	return func(out, x, k []uint64) { ringConv2D(out, x, k, d) }
}
