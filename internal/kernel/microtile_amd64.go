package kernel

// hasRingVec reports whether this CPU runs the AVX-512 ring tile and ring
// passes; the CPUID and XGETBV check runs once, at package init.
var hasRingVec = ringVecSupported()

// useRingVec routes microStrips[uint64] to the vector tile and the ring's
// elementwise passes to their vector loops. It starts equal to hasRingVec;
// tests clear it to run the Go bodies on the same CPU.
var useRingVec = hasRingVec

// ringTiles is microStrips' uint64 body on the vector path. It pins the
// operand lengths and bounds-checks both ends of every stored row (a row's
// stored indices are linear in the column), so the assembly never touches
// memory outside dst, ap or bp.
func ringTiles(dst, ap, bp []uint64, k int, rows *[tileM]int, cs, mr, n int, acc bool) {
	strips := max(n+tileN-1, 0) / tileN
	a := ap[: tileM*k : tileM*k]
	b := bp[: strips*tileN*k : strips*tileN*k]
	mr = min(mr, tileM)
	if n > 0 {
		for _, o := range rows[:max(mr, 0)] {
			_, _ = dst[o], dst[o+(n-1)*cs]
		}
	}
	ringTilesAVX512(dst, a, b, k, rows, cs, mr, n, acc)
}

//go:noescape
func ringTilesAVX512(dst, a, b []uint64, k int, rows *[tileM]int, cs, mr, n int, acc bool)

func ringVecSupported() bool
