// A second correlation generator: the aliased rng.New and the method value
// are caught; names in comments and strings are not (FillUint64).
package corr

import r "pasnet/internal/rng"

func deal(seed uint64, buf []uint64) []uint64 {
	g := r.New(seed)   // want
	g.FillUint64(buf)  // want
	draw := g.DrawBits // want
	_ = draw
	return fixedMask(buf, "FixedMaskPlain")
}

func FixedMaskPlain(seed uint64) uint64 { return seed } // want
