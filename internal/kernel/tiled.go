package kernel

// This file holds the register-tiled GEMM kernel every non-naive entry
// point runs on: each variant packs its operands into contiguous panel
// buffers and feeds a tileM×tileN microkernel whose output tile lives in
// unrolled scalar accumulators for the whole k extent.
//
// Why this is fast: a row-streaming inner loop does one load of b, one
// load of dst, one multiply-add and one store of dst per output
// contribution. The microkernel amortizes tileM·tileN
// multiply-adds over tileM+tileN loads, touches dst exactly once per
// output element, and both packed operands stream with stride 1, so the
// hot loop is bounds-check-free sequential reads feeding registers.
//
// Why it is still bit-identical: each output element is reduced by a
// single accumulator over the full k extent in strictly ascending k order
// — the same order the naive reference loops use — so float64 results
// match bit-for-bit (for finite inputs) and the worker-count-independence
// invariant that keeps the two 2PC parties in lockstep is untouched. The
// uint64 ring would tolerate any reordering (wrapping adds commute), but
// sharing one schedule keeps both domains on one implementation. Tiling
// happens only over the i/j output axes; padded tile lanes accumulate
// garbage that is never stored.

const (
	// tileM×tileN is the microkernel's output tile. 6×4 measured fastest
	// of the pure-Go candidates (4×4, 2×4, 6×4, 8×4, 4×8, 6×8, 8×8) on
	// both element domains: 24 accumulators spill a little, but each k
	// step amortizes 24 multiply-adds over 10 stride-1 loads, which beats
	// the shapes that stay register-resident; the packing layouts below
	// are sized to it.
	tileM = 6
	tileN = 4
)

// packedA holds one worker chunk's A rows, panel-major: panel pi covers
// output rows [lo+pi·tileM, lo+(pi+1)·tileM), stored k-major with the
// tileM row lanes interleaved (ap[pi·k·tileM + p·tileM + ii]), so the
// microkernel reads one contiguous lane group per k step. Ragged tail
// panels keep zero in their unused lanes.
//
// The GEMM variants hand their pack functions over as closures so all
// share one driver: each variant differs only in where an (i, p) or
// (p, j) element of its operand lives.

// panelLen returns the packedA length for a chunk of rows output rows
// with k-extent k: whole tileM-row panels.
func panelLen(rows, k int) int { return (rows + tileM - 1) / tileM * tileM * k }

// tiledDrive computes dst rows [lo, hi) of an m×n GEMM with k-extent k
// from ap, those rows' already-packed A panels, so a caller multiplying
// one A against many B operands (Conv2D's batch rows) packs it once.
// packB fills the caller's k·tileN scratch bp with one tileN-wide B strip
// for column j0 (zero-padding ragged strips). When acc is true the tile is
// added into dst instead of overwriting it.
func tiledDrive[T Elem](dst, ap, bp []T, k, n, lo, hi int, acc bool,
	packB func(bp []T, j0, nr int),
) {
	panels := (hi - lo + tileM - 1) / tileM
	for j0 := 0; j0 < n; j0 += tileN {
		nr := n - j0
		if nr > tileN {
			nr = tileN
		}
		packB(bp, j0, nr)
		for pi := 0; pi < panels; pi++ {
			i0 := lo + pi*tileM
			mr := hi - i0
			if mr > tileM {
				mr = tileM
			}
			microTile(dst, ap[pi*tileM*k:(pi+1)*tileM*k], bp, k, n, i0, j0, mr, nr, acc)
		}
	}
}

// tiledOnce is the one-shot entry to tiledDrive: it allocates the chunk's
// panel and strip buffers, fills the panels through packA and drives them.
func tiledOnce[T Elem](dst []T, k, n, lo, hi int, acc bool,
	packA func(ap []T),
	packB func(bp []T, j0, nr int),
) {
	if hi <= lo || n <= 0 {
		return
	}
	ap := make([]T, panelLen(hi-lo, k))
	packA(ap)
	tiledDrive(dst, ap, make([]T, k*tileN), k, n, lo, hi, acc, packB)
}

// microTile reduces one tileM×tileN output tile over the full k extent.
// ap is the tile's packed A panel (k groups of tileM row lanes), bp the
// packed B strip (k groups of tileN column lanes); the re-slicing below
// pins their exact lengths so the hot loop carries no bounds checks. Only
// the mr×nr live corner is stored.
func microTile[T Elem](dst, ap, bp []T, k, n, i0, j0, mr, nr int, acc bool) {
	var c [tileM][tileN]T
	a := ap[: tileM*k : tileM*k]
	b := bp[: tileN*k : tileN*k]
	for len(a) >= tileM {
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		a0, a1, a2, a3, a4, a5 := a[0], a[1], a[2], a[3], a[4], a[5]
		c[0][0] += a0 * b0
		c[0][1] += a0 * b1
		c[0][2] += a0 * b2
		c[0][3] += a0 * b3
		c[1][0] += a1 * b0
		c[1][1] += a1 * b1
		c[1][2] += a1 * b2
		c[1][3] += a1 * b3
		c[2][0] += a2 * b0
		c[2][1] += a2 * b1
		c[2][2] += a2 * b2
		c[2][3] += a2 * b3
		c[3][0] += a3 * b0
		c[3][1] += a3 * b1
		c[3][2] += a3 * b2
		c[3][3] += a3 * b3
		c[4][0] += a4 * b0
		c[4][1] += a4 * b1
		c[4][2] += a4 * b2
		c[4][3] += a4 * b3
		c[5][0] += a5 * b0
		c[5][1] += a5 * b1
		c[5][2] += a5 * b2
		c[5][3] += a5 * b3
		a = a[tileM:]
		b = b[tileN:]
	}
	for ii := 0; ii < mr; ii++ {
		drow := dst[(i0+ii)*n+j0 : (i0+ii)*n+j0+nr]
		if acc {
			for jj := range drow {
				drow[jj] += c[ii][jj]
			}
		} else {
			for jj := range drow {
				drow[jj] = c[ii][jj]
			}
		}
	}
}

// packARows packs row-major A (rows of length k, rows [lo, hi)).
func packARows[T Elem](ap, a []T, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		base := ((i - lo) / tileM) * tileM * k
		lane := (i - lo) % tileM
		for p, av := range arow {
			ap[base+p*tileM+lane] = av
		}
	}
}

// packATransCols packs column-major A (a stored k×m; output row i is a's
// column i), rows [lo, hi).
func packATransCols[T Elem](ap, a []T, k, m, lo, hi int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		for i := lo; i < hi; i++ {
			base := ((i - lo) / tileM) * tileM * k
			lane := (i - lo) % tileM
			ap[base+p*tileM+lane] = arow[i]
		}
	}
}

// packBStrip packs columns [j0, j0+nr) of row-major B (k rows of length
// n), zeroing ragged lanes.
func packBStrip[T Elem](bp, b []T, k, n, j0, nr int) {
	if nr == tileN {
		for p := 0; p < k; p++ {
			brow := b[p*n+j0 : p*n+j0+tileN : p*n+j0+tileN]
			bq := bp[p*tileN : p*tileN+tileN : p*tileN+tileN]
			bq[0], bq[1], bq[2], bq[3] = brow[0], brow[1], brow[2], brow[3]
		}
		return
	}
	for i := range bp {
		bp[i] = 0
	}
	for p := 0; p < k; p++ {
		for jj := 0; jj < nr; jj++ {
			bp[p*tileN+jj] = b[p*n+j0+jj]
		}
	}
}

// packBTransStrip packs columns [j0, j0+nr) of Bᵀ for B stored n×k (the
// TransB variants): column j of the product is B's row j.
func packBTransStrip[T Elem](bp, b []T, k, j0, nr int) {
	for jj := 0; jj < nr; jj++ {
		brow := b[(j0+jj)*k : (j0+jj+1)*k]
		for p, bv := range brow {
			bp[p*tileN+jj] = bv
		}
	}
	for jj := nr; jj < tileN; jj++ {
		for p := 0; p < k; p++ {
			bp[p*tileN+jj] = 0
		}
	}
}

// tiledRows computes dst rows [lo, hi) of a @ b for row-major a (rows of
// length k) and b (k×n) — the unit the worker pool parallelizes over, and
// the one GEMM MatMul and the conv im2col path share, so a kernel change
// retunes training, dealer triple generation and the online 2PC path at
// once.
func tiledRows[T Elem](dst, a, b []T, k, n, lo, hi int) {
	tiledOnce(dst, k, n, lo, hi, false,
		func(ap []T) { packARows(ap, a, k, lo, hi) },
		func(bp []T, j0, nr int) { packBStrip(bp, b, k, n, j0, nr) })
}

// tiledTransARows computes dst rows [lo, hi) of aᵀ @ b for a (k×m).
func tiledTransARows[T Elem](dst, a, b []T, k, m, n, lo, hi int) {
	tiledOnce(dst, k, n, lo, hi, false,
		func(ap []T) { packATransCols(ap, a, k, m, lo, hi) },
		func(bp []T, j0, nr int) { packBStrip(bp, b, k, n, j0, nr) })
}

// tiledTransBRows computes dst rows [lo, hi) of a @ bᵀ for b (n×k); acc
// selects the accumulating (dst +=) variant.
func tiledTransBRows[T Elem](dst, a, b []T, k, n, lo, hi int, acc bool) {
	tiledOnce(dst, k, n, lo, hi, acc,
		func(ap []T) { packARows(ap, a, k, lo, hi) },
		func(bp []T, j0, nr int) { packBTransStrip(bp, b, k, j0, nr) })
}
