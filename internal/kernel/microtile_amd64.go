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

// ringConvTiles is ConvPlan.run's uint64 body on the vector path: the
// pack-free tiles of the panels in pos (see convLanes) of one (group,
// class), whose taps are offs and Kᵀ strips bp, over the group's ocg
// channels at channel stride cs, out and x being the group's output and
// input. It pins the operand lengths and checks the class's extreme
// words: a class's input bases and output offsets only grow along its
// table and its taps along offs, so the first and last lane bound every
// word the assembly reads or stores.
func ringConvTiles(out, x []uint64, offs []int, bp []uint64, pos []int, ocg, cs int) {
	k := len(offs)
	strips := (ocg + tileN - 1) / tileN
	bp = bp[: strips*tileN*k : strips*tileN*k]
	np := len(pos) / (2 * tileM)
	if np == 0 || ocg <= 0 {
		return
	}
	pos = pos[: np*2*tileM : np*2*tileM]
	last := pos[(np-1)*2*tileM:]
	if k > 0 {
		_, _ = x[pos[0]], x[last[tileM-1]+offs[k-1]]
	}
	_, _ = out[pos[tileM]], out[last[2*tileM-1]+(ocg-1)*cs]
	ringConvTilesAVX512(out, x, offs, bp, pos, ocg, cs)
}

//go:noescape
func ringConvTilesAVX512(out, x []uint64, offs []int, bp []uint64, pos []int, ocg, cs int)

//go:noescape
func ringTilesAVX512(dst, a, b []uint64, k int, rows *[tileM]int, cs, mr, n int, acc bool)

func ringVecSupported() bool
