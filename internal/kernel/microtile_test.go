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

// TestConvTilesVectorMatchesGeneric pins the pack-free conv tile
// (ringConvTiles) to the Go body — each panel packed, then microTile — on
// real ConvPlan layouts: every window class of 3×3 pad-1 convs at stride 1
// and 2 on maps from 1×1 to 8×8 (and one H ≠ W), 1×1 convs (one padded,
// so some classes have no tap), dense, grouped and depthwise, at ocg from 1 to 32 output channels per group
// (one strip, ragged strips, strip pairs with an odd strip or a ragged
// pair) and icg 1–3 (odd and even k on every class), at N = 1, 2, 3 and
// 16, on words with the ring's edge values mixed in. Both write a copy of
// one random buffer around out, and the whole buffer must match. A
// paper-width layer also runs its vector walk at three workers, so its
// chunks cut classes in the middle.
func TestConvTilesVectorMatchesGeneric(t *testing.T) {
	if !hasRingVec {
		t.Skip("CPU lacks AVX-512 F/DQ/VL (or this is not amd64): ConvPlan runs the packed Go body only")
	}
	defer func(prev bool) { useRingVec = prev }(useRingVec)
	defer SetWorkers(SetWorkers(1))
	r := rng.New(50)
	check := func(s ConvShape, workers ...int) {
		t.Helper()
		p := NewConvPlan(fillWords(r, s.KLen()), s)
		x := fillWords(r, s.InLen())
		const slack = 5
		buf := fillWords(r, s.OutLen()+2*slack)
		want := append([]uint64(nil), buf...)
		useRingVec = false
		SetWorkers(1)
		p.Run(want[slack:slack+s.OutLen()], x, s.N)
		useRingVec = true
		for _, w := range workers {
			got := append([]uint64(nil), buf...)
			SetWorkers(w)
			p.Run(got[slack:slack+s.OutLen()], x, s.N)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v at %d workers: word %d (out[%d]) is %#x, the Go body's %#x", s, w, i, i-slack, got[i], want[i])
				}
			}
		}
	}
	type geom struct{ h, w, kk, stride, pad int }
	var geoms []geom
	for _, hw := range []int{1, 2, 3, 4, 5, 8} {
		geoms = append(geoms, geom{hw, hw, 3, 1, 1}, geom{hw, hw, 3, 2, 1})
	}
	// The last one pads a 1×1 kernel, so its border classes have no tap.
	geoms = append(geoms, geom{3, 8, 3, 1, 1}, geom{8, 8, 1, 1, 0}, geom{8, 8, 1, 2, 0}, geom{2, 2, 1, 1, 0}, geom{3, 3, 1, 1, 1})
	for _, gm := range geoms {
		for _, icg := range []int{1, 2, 3} {
			for _, ocg := range []int{1, 2, 4, 5, 8, 12, 20, 32} {
				for _, n := range []int{1, 2, 3, 16} {
					for _, g := range []int{1, 2} {
						check(ConvShape{N: n, InC: g * icg, H: gm.h, W: gm.w, OutC: g * ocg,
							KH: gm.kk, KW: gm.kk, Stride: gm.stride, Pad: gm.pad, Groups: g}, 1)
					}
				}
			}
		}
		for _, n := range []int{1, 16} {
			check(ConvShape{N: n, InC: 8, H: gm.h, W: gm.w, OutC: 8,
				KH: gm.kk, KW: gm.kk, Stride: gm.stride, Pad: gm.pad, Groups: 8}, 1)
		}
	}
	check(ConvShape{N: 16, InC: 32, H: 8, W: 8, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 1, 3)
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
