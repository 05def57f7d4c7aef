// Package tensor implements dense float64 tensors and the numeric kernels
// (matmul, im2col convolution, pooling) that back both the plaintext neural
// network library and the correctness references for the 2PC protocols.
//
// Tensors are row-major with explicit shapes. The layout convention for
// images is NCHW (batch, channel, height, width), matching the paper's
// FI/IC/OC notation where a feature map is IC × FI × FI.
package tensor

import (
	"fmt"
	"math"

	"pasnet/internal/kernel"
	"pasnet/internal/rng"
)

// Tensor is a dense row-major float64 array with a shape.
type Tensor struct {
	// Shape holds the dimension sizes, outermost first.
	Shape []int
	// Data is the backing storage, of length prod(Shape).
	Data []float64
}

// New returns a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %v", shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if the length does not match.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// SameShape reports whether the two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index (bounds unchecked beyond
// the flattening arithmetic; intended for tests and small paths).
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// AddInto computes dst = a + b elementwise. Shapes must match.
func AddInto(dst, a, b *Tensor) {
	checkSame(a, b)
	checkSame(dst, a)
	kernel.Add(dst.Data, a.Data, b.Data)
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	AddInto(out, a, b)
	return out
}

// SubInto computes dst = a - b elementwise.
func SubInto(dst, a, b *Tensor) {
	checkSame(a, b)
	checkSame(dst, a)
	kernel.Sub(dst.Data, a.Data, b.Data)
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	SubInto(out, a, b)
	return out
}

// MulInto computes dst = a * b elementwise (Hadamard).
func MulInto(dst, a, b *Tensor) {
	checkSame(a, b)
	checkSame(dst, a)
	kernel.Mul(dst.Data, a.Data, b.Data)
}

// Mul returns the Hadamard product a * b.
func Mul(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	MulInto(out, a, b)
	return out
}

// ScaleInto computes dst = s * a.
func ScaleInto(dst, a *Tensor, s float64) {
	checkSame(dst, a)
	kernel.Scale(dst.Data, a.Data, s)
}

// Scale returns s * a.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	ScaleInto(out, a, s)
	return out
}

// AxpyInto computes dst += s * a.
func AxpyInto(dst, a *Tensor, s float64) {
	checkSame(dst, a)
	kernel.Axpy(dst.Data, a.Data, s)
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dot returns the inner product of the flattened tensors.
func Dot(a, b *Tensor) float64 {
	checkSame(a, b)
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// RandNorm fills t with N(0, sigma^2) samples.
func (t *Tensor) RandNorm(r *rng.RNG, sigma float64) *Tensor {
	r.FillNorm(t.Data, sigma)
	return t
}

// RandUniform fills t with Uniform[lo, hi) samples.
func (t *Tensor) RandUniform(r *rng.RNG, lo, hi float64) *Tensor {
	r.FillUniform(t.Data, lo, hi)
	return t
}

func checkSame(a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
}

// MatMul computes the matrix product of a (m×k) and b (k×n), returning m×n.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	MatMulInto(out, a, b)
	_ = k
	return out
}

// MatMulInto computes dst = a @ b for 2-D tensors on the shared
// register-tiled parallel GEMM.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n || b.Shape[0] != k {
		panic("tensor: matmul-into shape mismatch")
	}
	kernel.MatMul(dst.Data, a.Data, b.Data, m, k, n)
}

// MatMulTransB computes a @ b^T where a is m×k and b is n×k, returning m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmul-transB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := New(m, n)
	kernel.MatMulTransB(out.Data, a.Data, b.Data, m, k, n)
	return out
}

// MatMulTransA computes a^T @ b where a is k×m and b is k×n, returning m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul-transA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	kernel.MatMulTransA(out.Data, a.Data, b.Data, k, m, n)
	return out
}
