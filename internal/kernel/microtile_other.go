//go:build !amd64

package kernel

// Only amd64 has a vector ring tile and vector ring passes; every other
// architecture runs the Go microTile in both element domains and the Go
// elementwise loops.
const hasRingVec = false

var useRingVec = false

func ringTiles(dst, ap, bp []uint64, k int, rows *[tileM]int, cs, mr, n int, acc bool) {
	panic("kernel: no vector ring tile on this architecture")
}

func ringConvTiles(out, x []uint64, offs []int, bp []uint64, pos []int, ocg, cs int) {
	panic("kernel: no vector ring tile on this architecture")
}

func ringAddVec(dst, a, b []uint64) { panic("kernel: no vector ring pass on this architecture") }
func ringSubVec(dst, a, b []uint64) { panic("kernel: no vector ring pass on this architecture") }

func ringTruncAddVec(d, z, bias []uint64, inner int, f uint, neg bool, lo int) {
	panic("kernel: no vector ring pass on this architecture")
}

func ringX2ActVec(dst, mine, theirs, a, z, x []uint64, c *x2Coeffs, neg bool) {
	panic("kernel: no vector ring pass on this architecture")
}
