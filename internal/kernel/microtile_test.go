package kernel

import (
	"fmt"
	"math"
	"testing"

	"pasnet/internal/rng"
)

// fillWords is fillU64 with the ring's edge words mixed in: 0, 1, 2⁶³ and
// 2⁶⁴−1 at every seventh position, so products wrap in both directions.
func fillWords(r *rng.RNG, n int) []uint64 {
	out := fillU64(r, n)
	edges := []uint64{0, 1, 1 << 63, math.MaxUint64}
	for i := 0; i < n; i += 7 {
		out[i] = edges[(i/7)%len(edges)]
	}
	return out
}

// tileRows returns row offsets for one A panel's tiles over n columns
// stored with column stride cs: at cs = 1 (a row-major GEMM) rows sit
// n+1 words apart, one word of gap after each; otherwise (a conv's NCHW
// store) rows are consecutive positions and columns cs apart. Dead lanes
// from mr on hold an offset far outside any buffer, so a store to one
// fails. span is a destination length with at least 3 words of slack at
// each end.
func tileRows(cs, mr, n int) (rows [tileM]int, span int) {
	for ii := range rows {
		switch {
		case ii >= mr:
			rows[ii] = 1 << 40
		case cs == 1:
			rows[ii] = 3 + (n+1)*ii
		default:
			rows[ii] = 3 + ii
		}
	}
	return rows, 3 + (n+1)*tileM + (n-1)*cs + 3
}

// TestMicroTileVectorMatchesGeneric pins the AVX-512 ring tile to the Go
// one: every live corner mr×nr of the 6×4 tile (n = nr ≤ 4 columns is one
// strip) and panels over 5 to 9 columns (several strips, the last one
// ragged or whole), storing and accumulating, at unit and conv-like column
// strides, over k extents that straddle the served and paper-scale class
// sizes, on words over the full 64-bit range. Both write a copy of one
// random destination, and the whole destination must match, so a store
// outside the live corner fails as well.
func TestMicroTileVectorMatchesGeneric(t *testing.T) {
	if !hasRingVec {
		t.Skip("CPU lacks AVX-512 F/DQ/VL (or this is not amd64): the ring tile runs the Go body only")
	}
	defer func(prev bool) { useRingVec = prev }(useRingVec)
	r := rng.New(48)
	for _, k := range []int{0, 1, 2, 5, 27, 36, 72, 288, 289} {
		const maxN = 9
		strips := (maxN + tileN - 1) / tileN
		ap, bp := fillWords(r, tileM*k), fillWords(r, strips*tileN*k)
		for _, cs := range []int{1, 64} {
			for mr := 1; mr <= tileM; mr++ {
				for n := 1; n <= maxN; n++ {
					rows, span := tileRows(cs, mr, n)
					nb := (n + tileN - 1) / tileN * tileN * k
					for _, acc := range []bool{false, true} {
						dst := fillWords(r, span)
						want := append([]uint64(nil), dst...)
						useRingVec = false
						microStrips(want, ap, bp[:nb], k, &rows, cs, mr, n, acc)
						useRingVec = true
						microStrips(dst, ap, bp[:nb], k, &rows, cs, mr, n, acc)
						for i := range want {
							if dst[i] != want[i] {
								t.Fatalf("k=%d cs=%d mr=%d n=%d acc=%v: word %d is %#x, Go tile %#x", k, cs, mr, n, acc, i, dst[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestRingGoTile runs the ring equivalence suites with the vector tile
// off, so the Go ring tile stays pinned on a CPU that would otherwise
// never run it.
func TestRingGoTile(t *testing.T) {
	defer func(prev bool) { useRingVec = prev }(useRingVec)
	useRingVec = false
	for _, c := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"ConvPlanMatchesNaive", TestConvPlanMatchesNaive},
		{"MatMulVariants", TestMatMulVariants},
		{"GEMMVariantsCrossBackend", TestGEMMVariantsCrossBackend},
		{"ConvCrossBackend", TestConvCrossBackend},
	} {
		t.Run(c.name, c.fn)
	}
}

// BenchmarkMicroTile times one 6×4 ring tile with its operands in L1, on
// the Go body and on the vector one, at the k extents of the served and
// paper-scale classes, stored as a conv stores it (channel stride 64).
func BenchmarkMicroTile(b *testing.B) {
	defer func(prev bool) { useRingVec = prev }(useRingVec)
	for _, k := range []int{27, 36, 72, 288} {
		for _, vec := range []bool{false, true} {
			name := fmt.Sprintf("k%d/go", k)
			if vec {
				name = fmt.Sprintf("k%d/avx512", k)
			}
			b.Run(name, func(b *testing.B) {
				if vec && !hasRingVec {
					b.Skip("CPU lacks AVX-512 F/DQ/VL")
				}
				useRingVec = vec
				r := rng.New(49)
				ap, bp := fillU64(r, tileM*k), fillU64(r, tileN*k)
				rows, span := tileRows(64, tileM, tileN)
				dst := make([]uint64, span)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					microStrips(dst, ap, bp, k, &rows, 64, tileM, tileN, false)
				}
				b.ReportMetric(float64(tileM*tileN*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
