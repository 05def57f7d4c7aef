//go:build !amd64

package kernel

// Only amd64 has a vector ring tile; every other architecture runs the Go
// microTile in both element domains.
const hasRingVec = false

var useRingVec = false

func ringTiles(dst, ap, bp []uint64, k int, rows *[tileM]int, cs, mr, n int, acc bool) {
	panic("kernel: no vector ring tile on this architecture")
}
