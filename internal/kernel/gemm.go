package kernel

// Elem is the element domain shared by every kernel: IEEE float64 for
// plaintext training and uint64 for the 2PC ring, where Go's wrapping
// integer arithmetic is exactly the Z_{2^64} semantics.
type Elem interface {
	~float64 | ~uint64
}

// gemmFlopGrain is the approximate multiply count handed to one worker;
// row chunks are sized so small problems stay on one core.
const gemmFlopGrain = 1 << 15

// rowGrain returns the number of output rows per parallel chunk for a
// problem with rowWork multiplies per row.
func rowGrain(rowWork int) int {
	if rowWork <= 0 {
		return 1
	}
	g := gemmFlopGrain / rowWork
	if g < 1 {
		return 1
	}
	return g
}

// MatMul computes dst = a @ b for a (m×k) and b (k×n), parallelized over
// dst rows on the tiled kernel (or MatMulNaive when SetNaive is on). dst
// must not alias a or b.
func MatMul[T Elem](dst, a, b []T, m, k, n int) {
	if Naive() {
		MatMulNaive(dst, a, b, m, k, n)
		return
	}
	parallelFor(m, rowGrain(k*n), func(lo, hi int) {
		tiledRows(dst, a, b, k, n, lo, hi)
	})
}

// MatMulNaive is the retained reference: the seed's single-threaded,
// unblocked row-times-rows loop nest.
func MatMulNaive[T Elem](dst, a, b []T, m, k, n int) {
	for i := 0; i < m; i++ {
		drow := dst[i*n : (i+1)*n]
		for x := range drow {
			drow[x] = 0
		}
		arow := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				drow[j] += av * brow[j]
			}
		}
	}
}

// MatMulTransB computes dst = a @ bᵀ for a (m×k) and b (n×k), parallelized
// over dst rows on the packed microkernel; under SetNaive it runs the
// serial reference loop, which streams both operands row-wise.
func MatMulTransB[T Elem](dst, a, b []T, m, k, n int) {
	matMulTransB(dst, a, b, m, k, n, false)
}

// MatMulTransBAcc computes dst += a @ bᵀ, the accumulating variant used
// for weight-gradient reduction across a batch.
func MatMulTransBAcc[T Elem](dst, a, b []T, m, k, n int) {
	matMulTransB(dst, a, b, m, k, n, true)
}

func matMulTransB[T Elem](dst, a, b []T, m, k, n int, acc bool) {
	if !Naive() {
		parallelFor(m, rowGrain(k*n), func(lo, hi int) {
			tiledTransBRows(dst, a, b, k, n, lo, hi, acc)
		})
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s T
			for p, av := range arow {
				s += av * brow[p]
			}
			if acc {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}

// MatMulTransA computes dst = aᵀ @ b for a (k×m) and b (k×n), parallelized
// over dst rows (columns of a); under SetNaive it runs the serial
// reference loop.
func MatMulTransA[T Elem](dst, a, b []T, k, m, n int) {
	if !Naive() {
		parallelFor(m, rowGrain(k*n), func(lo, hi int) {
			tiledTransARows(dst, a, b, k, m, n, lo, hi)
		})
		return
	}
	for x := range dst[:m*n] {
		dst[x] = 0
	}
	for p := 0; p < k; p++ {
		brow := b[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			drow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}
