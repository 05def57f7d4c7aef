package kernel

// elemGrain is the minimum per-chunk element count for parallel
// elementwise passes; below 2× this the loop runs inline, so small shares
// (activations, biases) never pay scheduling overhead.
const elemGrain = 8192

// Add computes dst = a + b elementwise. Up to the elementwise grain it
// runs inline, so a small share pays neither scheduling nor a closure.
func Add[T Elem](dst, a, b []T) {
	if len(dst) <= elemGrain {
		addChunk(dst, a[:len(dst)], b[:len(dst)])
		return
	}
	parallelFor(len(dst), elemGrain, func(lo, hi int) {
		addChunk(dst[lo:hi], a[lo:hi], b[lo:hi])
	})
}

// Sub computes dst = a - b elementwise, inline up to the elementwise grain.
func Sub[T Elem](dst, a, b []T) {
	if len(dst) <= elemGrain {
		subChunk(dst, a[:len(dst)], b[:len(dst)])
		return
	}
	parallelFor(len(dst), elemGrain, func(lo, hi int) {
		subChunk(dst[lo:hi], a[lo:hi], b[lo:hi])
	})
}

// addChunk and subChunk are Add's and Sub's bodies over one chunk of equal
// lengths: the vector ring pass when useRingVec is set, else the Go loop,
// which is also its equivalence reference.
func addChunk[T Elem](d, x, y []T) {
	if useRingVec {
		if dd, ok := any(d).([]uint64); ok {
			ringAddVec(dd, any(x).([]uint64), any(y).([]uint64))
			return
		}
	}
	for i := range d {
		d[i] = x[i] + y[i]
	}
}

func subChunk[T Elem](d, x, y []T) {
	if useRingVec {
		if dd, ok := any(d).([]uint64); ok {
			ringSubVec(dd, any(x).([]uint64), any(y).([]uint64))
			return
		}
	}
	for i := range d {
		d[i] = x[i] - y[i]
	}
}

// Mul computes dst = a * b elementwise (Hadamard).
func Mul[T Elem](dst, a, b []T) {
	parallelFor(len(dst), elemGrain, func(lo, hi int) {
		d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
		for i := range d {
			d[i] = x[i] * y[i]
		}
	})
}

// Scale computes dst = s * a elementwise.
func Scale[T Elem](dst, a []T, s T) {
	parallelFor(len(dst), elemGrain, func(lo, hi int) {
		d, x := dst[lo:hi], a[lo:hi]
		for i := range d {
			d[i] = s * x[i]
		}
	})
}

// Axpy computes dst += s * a elementwise.
func Axpy[T Elem](dst, a []T, s T) {
	parallelFor(len(dst), elemGrain, func(lo, hi int) {
		d, x := dst[lo:hi], a[lo:hi]
		for i := range d {
			d[i] += s * x[i]
		}
	})
}

// The ring's fused passes below finish a 2PC op over one party's share
// words. Truncation is SecureML's local rounding of a double-precision
// share by f fractional bits: party 0 shifts its word arithmetically, party
// 1 shifts the negation of its word and negates back (trunc0, trunc1).

func trunc0(v uint64, f uint) uint64 { return uint64(int64(v) >> f) }
func trunc1(v uint64, f uint) uint64 { return -uint64(int64(-v) >> f) }

// TruncAdd finishes a linear op in one pass over dst: each word becomes
//
//	trunc(dst[i] + z[i]) + bias[(i/inner) mod len(bias)],
//
// truncated as party rounds (see trunc0/trunc1), with inner words per bias
// word — a conv's OH·OW per output channel, 1 for a matrix row — and no
// bias when bias is empty. z must be at least as long as dst.
func TruncAdd(dst, z, bias []uint64, inner int, f uint, party int) {
	if len(bias) == 0 {
		bias = nil
	}
	truncAddRange(dst, z[:len(dst)], bias, max(inner, 1), f, party)
}

// truncAddRange is TruncAdd on checked arguments, inline up to the
// elementwise grain and in parallel chunks above it. It never reassigns a
// parameter, so the chunk closure captures copies and the inline path
// allocates nothing.
func truncAddRange(dst, z, bias []uint64, inner int, f uint, party int) {
	if len(dst) <= elemGrain {
		truncAddChunk(dst, z, bias, inner, f, party, 0)
		return
	}
	parallelFor(len(dst), elemGrain, func(lo, hi int) {
		truncAddChunk(dst[lo:hi], z[lo:hi], bias, inner, f, party, lo)
	})
}

// truncAddChunk is TruncAdd over the chunk of dst that starts at word lo.
func truncAddChunk(d, z, bias []uint64, inner int, f uint, party, lo int) {
	if useRingVec {
		ringTruncAddVec(d, z, bias, inner, f, party == 1, lo)
		return
	}
	truncAddGo(d, z, bias, inner, f, party, lo)
}

// noBias is truncAddGo's one zero bias word.
var noBias = []uint64{0}

// truncAddGo is TruncAdd's Go body and the vector pass's equivalence
// reference: one loop per run of words that share a bias word.
func truncAddGo(d, z, bias []uint64, inner int, f uint, party, lo int) {
	if bias == nil {
		bias, inner = noBias, len(d)+lo+1
	}
	for i := 0; i < len(d); {
		run := (lo + i) / inner
		end := min(len(d), (run+1)*inner-lo)
		b := bias[run%len(bias)]
		dd, zz := d[i:end], z[i:end]
		if party == 1 {
			for j := range dd {
				dd[j] = trunc1(dd[j]+zz[j], f) + b
			}
		} else {
			for j := range dd {
				dd[j] = trunc0(dd[j]+zz[j], f) + b
			}
		}
		i = end
	}
}

// X2Act is the polynomial activation's pass after its square pair's one
// opening: with E = mine + theirs (this party's x − a and the peer's), each
// word becomes
//
//	trunc(c1·trunc(z + 2E·a [+ E·E on party 1]) + c2·x) + bias,
//
// truncated as party rounds (see trunc0/trunc1). Every slice must be at
// least as long as dst; dst may be x.
func X2Act(dst, mine, theirs, a, z, x []uint64, c1, c2, bias uint64, f uint, party int) {
	n := len(dst)
	c := x2Coeffs{c1, c2, bias, uint64(f)}
	if n <= elemGrain {
		x2ActChunk(dst, mine[:n], theirs[:n], a[:n], z[:n], x[:n], &c, party)
		return
	}
	x2ActParallel(dst, mine[:n], theirs[:n], a[:n], z[:n], x[:n], c, party)
}

// x2ActParallel is X2Act over parallel chunks of dst. It takes c by value
// so that only this path moves it to the heap for the chunk closure.
func x2ActParallel(dst, mine, theirs, a, z, x []uint64, c x2Coeffs, party int) {
	parallelFor(len(dst), elemGrain, func(lo, hi int) {
		x2ActChunk(dst[lo:hi], mine[lo:hi], theirs[lo:hi], a[lo:hi], z[lo:hi], x[lo:hi], &c, party)
	})
}

// x2ActChunk is X2Act's body over one chunk of equal lengths.
func x2ActChunk(d, mine, theirs, a, z, x []uint64, c *x2Coeffs, party int) {
	if useRingVec {
		ringX2ActVec(d, mine, theirs, a, z, x, c, party == 1)
		return
	}
	x2ActGo(d, mine, theirs, a, z, x, c, party)
}

// x2Coeffs are X2Act's public words: c1, c2, the bias and the shift f.
type x2Coeffs [4]uint64

// x2ActGo is X2Act's Go body and the vector pass's equivalence reference.
func x2ActGo(d, mine, theirs, a, z, x []uint64, c *x2Coeffs, party int) {
	c1, c2, bias, f := c[0], c[1], c[2], uint(c[3])
	if party == 1 {
		for i := range d {
			e := mine[i] + theirs[i]
			sq := trunc1(z[i]+2*(e*a[i])+e*e, f)
			d[i] = trunc1(c1*sq+c2*x[i], f) + bias
		}
		return
	}
	for i := range d {
		e := mine[i] + theirs[i]
		sq := trunc0(z[i]+2*(e*a[i]), f)
		d[i] = trunc0(c1*sq+c2*x[i], f) + bias
	}
}
