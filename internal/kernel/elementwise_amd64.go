package kernel

// The ring's elementwise passes on the vector path (elementwise_amd64.s):
// eight words per ZMM register, the last partial block under a lane mask,
// so a share of any length runs one vector loop with no scalar tail. Each
// function below receives operands the caller has already cut to dst's
// length, and runs only when useRingVec is set.

// biasLanes is the vector TruncAdd's bias walk. Lane j of a block is pos[j]
// words into its run and takes bias word ch[j]; stepping one block of 8
// words adds r = 8 mod inner to pos and q = (8/inner) mod c to ch, carries
// one run where pos reaches inner and wraps ch at c, so no lane divides.
type biasLanes struct {
	pos, ch        [8]uint64
	inner, r, q, c uint64
}

// ringTruncAddVec is TruncAdd over the chunk of dst that starts at word lo:
// it seeds each lane's place in the bias pattern from lo once, then the
// assembly carries it block to block.
func ringTruncAddVec(d, z, bias []uint64, inner int, f uint, neg bool, lo int) {
	var w biasLanes
	if bias != nil {
		c := len(bias)
		for j := range w.pos {
			w.pos[j] = uint64((lo + j) % inner)
			w.ch[j] = uint64((lo + j) / inner % c)
		}
		w.inner, w.r, w.q, w.c = uint64(inner), uint64(8%inner), uint64(8/inner%c), uint64(c)
	}
	truncAddAVX512(d, z, bias, uint64(f), neg, &w)
}

// ringAddVec and ringSubVec are Add and Sub over equal lengths.
//
//go:noescape
func ringAddVec(dst, a, b []uint64)

//go:noescape
func ringSubVec(dst, a, b []uint64)

//go:noescape
func truncAddAVX512(dst, z, bias []uint64, f uint64, neg bool, w *biasLanes)

// ringX2ActVec is X2Act over equal lengths.
//
//go:noescape
func ringX2ActVec(dst, mine, theirs, a, z, x []uint64, c *x2Coeffs, neg bool)
