package kernel

import "fmt"

// ConvShape captures the geometry of an NCHW convolution: input
// (N,InC,H,W), kernel (OutC,InC/Groups,KH,KW), symmetric stride/padding.
// Groups <= 1 is a dense convolution; InC == OutC == Groups is depthwise.
type ConvShape struct {
	N, InC, H, W int
	OutC, KH, KW int
	Stride, Pad  int
	Groups       int
}

// NormGroups normalizes a group count: 0 and 1 both mean dense.
func NormGroups(g int) int {
	if g <= 1 {
		return 1
	}
	return g
}

// NormGroups returns the shape's normalized group count.
func (s ConvShape) NormGroups() int { return NormGroups(s.Groups) }

// OutHW returns the output spatial size.
func (s ConvShape) OutHW() (int, int) {
	oh := (s.H+2*s.Pad-s.KH)/s.Stride + 1
	ow := (s.W+2*s.Pad-s.KW)/s.Stride + 1
	return oh, ow
}

// InLen, KLen and OutLen return flat element counts.
func (s ConvShape) InLen() int { return s.N * s.InC * s.H * s.W }
func (s ConvShape) KLen() int  { return s.OutC * (s.InC / s.NormGroups()) * s.KH * s.KW }
func (s ConvShape) OutLen() int {
	oh, ow := s.OutHW()
	return s.N * s.OutC * oh * ow
}

func (s ConvShape) check(out, x, k int) {
	if x != s.InLen() || k != s.KLen() || out != s.OutLen() {
		panic(fmt.Sprintf("kernel: conv buffers (out %d, x %d, k %d) do not match shape %+v", out, x, k, s))
	}
	g := s.NormGroups()
	if s.InC%g != 0 || s.OutC%g != 0 {
		panic(fmt.Sprintf("kernel: groups %d do not divide channels in shape %+v", g, s))
	}
}

// Conv2D computes out = conv(x, k) for the given shape (or runs the naive
// reference loops when SetNaive is on). Each group is one transposed GEMM,
// outᵀ = colsᵀ · Kᵀ: its rows are all N·OH·OW output positions of the
// call, its columns the group's output channels and its k extent the
// group's (channel, ky, kx) taps. Row panels are packed straight from the
// NCHW input through a per-call tap-offset table, so no im2col matrix is
// materialised; Kᵀ is packed into column strips once per call; and each
// tile is stored back into NCHW through per-position row offsets and the
// OH·OW channel stride. A batch of queries therefore fills the tile rows
// even where a layer has few output channels or a tiny map. Accumulation
// order per output element matches the naive loops, so float64 results
// are bit-identical and ring results are exactly equal.
func Conv2D[T Elem](out, x, k []T, s ConvShape) {
	s.check(len(out), len(x), len(k))
	if Naive() {
		Conv2DNaive(out, x, k, s)
		return
	}
	oh, ow := s.OutHW()
	ohw := oh * ow
	if ohw <= 0 {
		return
	}
	g := s.NormGroups()
	icg := s.InC / g
	ocg := s.OutC / g
	ckk := icg * s.KH * s.KW
	offs := tapOffsets(s, icg)
	strips := (ocg + tileN - 1) / tileN
	slen := ckk * tileN
	kp := make([]T, g*strips*slen)
	for gi := 0; gi < g; gi++ {
		kg := k[gi*ocg*ckk : (gi+1)*ocg*ckk]
		for si := 0; si < strips; si++ {
			j0 := si * tileN
			packBTransStrip(kp[(gi*strips+si)*slen:(gi*strips+si+1)*slen], kg, ckk, j0, min(tileN, ocg-j0))
		}
	}
	m := s.N * ohw
	panels := (m + tileM - 1) / tileM
	parallelFor(g*panels, 1+gemmFlopGrain/(tileM*ckk*ocg), func(lo, hi int) {
		ap := make([]T, tileM*ckk)
		var rows [tileM]int
		for t := lo; t < hi; t++ {
			gi, r0 := t/panels, t%panels*tileM
			mr := min(tileM, m-r0)
			packConvPanel(ap, &rows, x, offs, s, gi, r0, mr)
			gkp := kp[gi*strips*slen : (gi+1)*strips*slen]
			for si := 0; si < strips; si++ {
				j0 := si * tileN
				microTile(out[j0*ohw:], ap, gkp[si*slen:(si+1)*slen], ckk, &rows, ohw, mr, min(tileN, ocg-j0), false)
			}
		}
	})
}

// tapOffsets lists a group's (channel-in-group, ky, kx) taps in the naive
// loops' accumulation order, each as its input offset from the receptive
// field's top-left corner in the group's first channel.
func tapOffsets(s ConvShape, icg int) []int {
	offs := make([]int, 0, icg*s.KH*s.KW)
	for cg := 0; cg < icg; cg++ {
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				offs = append(offs, (cg*s.H+ky)*s.W+kx)
			}
		}
	}
	return offs
}

// packConvPanel packs the colsᵀ panel of output positions [r0, r0+mr)
// (flattened over batch row and map position) for group gi into ap,
// k-major with the tileM position lanes interleaved, and sets rows[ii] to
// lane ii's NCHW offset at the group's first output channel. Taps that
// fall in padding and the lanes past mr are zero.
func packConvPanel[T Elem](ap []T, rows *[tileM]int, x []T, offs []int, s ConvShape, gi, r0, mr int) {
	oh, ow := s.OutHW()
	ohw := oh * ow
	g := s.NormGroups()
	icg, ocg := s.InC/g, s.OutC/g
	b := r0 / ohw
	pos := r0 - b*ohw
	oy := pos / ow
	ox := pos - oy*ow
	var base [tileM]int
	border := 0 // bit ii set: lane ii's receptive field crosses the padding
	for ii := 0; ii < mr; ii++ {
		iy0, ix0 := oy*s.Stride-s.Pad, ox*s.Stride-s.Pad
		base[ii] = ((b*s.InC+gi*icg)*s.H+iy0)*s.W + ix0
		rows[ii] = (b*s.OutC+gi*ocg)*ohw + pos
		if iy0 < 0 || iy0+s.KH > s.H || ix0 < 0 || ix0+s.KW > s.W {
			border |= 1 << ii
			packBorderLane(ap, x, s, ii, b*s.InC+gi*icg, icg, iy0, ix0)
		}
		pos++
		if ox++; ox == ow {
			ox = 0
			if oy++; oy == oh {
				oy, pos = 0, 0
				b++
			}
		}
	}
	if mr == tileM && border == 0 {
		for p, o := range offs {
			a := ap[p*tileM : p*tileM+tileM : p*tileM+tileM]
			a[0], a[1], a[2] = x[base[0]+o], x[base[1]+o], x[base[2]+o]
			a[3], a[4], a[5] = x[base[3]+o], x[base[4]+o], x[base[5]+o]
		}
		return
	}
	for ii := 0; ii < tileM; ii++ {
		switch {
		case ii >= mr:
			for p := range offs {
				ap[p*tileM+ii] = 0
			}
		case border&(1<<ii) == 0:
			xb := base[ii]
			for p, o := range offs {
				ap[p*tileM+ii] = x[xb+o]
			}
		}
	}
}

// packBorderLane fills panel lane ii for an output position whose
// receptive field, top-left corner (iy0, ix0) in input channel c0 (the
// group's first), crosses the padding: taps outside the map are zero.
func packBorderLane[T Elem](ap, x []T, s ConvShape, ii, c0, icg, iy0, ix0 int) {
	kxLo, kxHi := max(0, -ix0), min(s.KW, s.W-ix0)
	p := ii
	for c := c0; c < c0+icg; c++ {
		for ky := 0; ky < s.KH; ky++ {
			iy := iy0 + ky
			if iy < 0 || iy >= s.H {
				for kx := 0; kx < s.KW; kx++ {
					ap[p] = 0
					p += tileM
				}
				continue
			}
			row := (c*s.H + iy) * s.W
			for kx := 0; kx < s.KW; kx++ {
				if kx >= kxLo && kx < kxHi {
					ap[p] = x[row+ix0+kx]
				} else {
					ap[p] = 0
				}
				p += tileM
			}
		}
	}
}

// Conv2DNaive is the retained scalar reference: a direct 7-deep loop nest,
// kept for equivalence tests and as the SetNaive fallback.
func Conv2DNaive[T Elem](out, x, k []T, s ConvShape) {
	oh, ow := s.OutHW()
	g := s.NormGroups()
	icg := s.InC / g
	ocg := s.OutC / g
	oi := 0
	for b := 0; b < s.N; b++ {
		for oc := 0; oc < s.OutC; oc++ {
			group := oc / ocg
			kbase := oc * icg * s.KH * s.KW
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum T
					for cg := 0; cg < icg; cg++ {
						c := group*icg + cg
						xbase := (b*s.InC + c) * s.H * s.W
						kcbase := kbase + cg*s.KH*s.KW
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.Stride + ky - s.Pad
							if iy < 0 || iy >= s.H {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.Stride + kx - s.Pad
								if ix < 0 || ix >= s.W {
									continue
								}
								sum += x[xbase+iy*s.W+ix] * k[kcbase+ky*s.KW+kx]
							}
						}
					}
					out[oi] = sum
					oi++
				}
			}
		}
	}
}

// im2colRows fills column-matrix rows [r0, r1) for batch b, group gi, the
// lowering Conv2DGrads runs on. Row r corresponds to one (channel-in-group,
// ky, kx) tap; its ohw entries are the tap's value at every output
// position (zero where the tap falls in padding).
func im2colRows[T Elem](cols, x []T, s ConvShape, b, gi, r0, r1 int) {
	oh, ow := s.OutHW()
	ohw := oh * ow
	g := s.NormGroups()
	icg := s.InC / g
	kk := s.KH * s.KW
	for r := r0; r < r1; r++ {
		cg := r / kk
		rem := r % kk
		ky := rem / s.KW
		kx := rem % s.KW
		c := gi*icg + cg
		src := x[(b*s.InC+c)*s.H*s.W : (b*s.InC+c+1)*s.H*s.W]
		dst := cols[r*ohw : (r+1)*ohw]
		for oy := 0; oy < oh; oy++ {
			iy := oy*s.Stride + ky - s.Pad
			drow := dst[oy*ow : (oy+1)*ow]
			if iy < 0 || iy >= s.H {
				for j := range drow {
					drow[j] = 0
				}
				continue
			}
			srow := src[iy*s.W : (iy+1)*s.W]
			for ox := range drow {
				ix := ox*s.Stride + kx - s.Pad
				if ix >= 0 && ix < s.W {
					drow[ox] = srow[ix]
				} else {
					drow[ox] = 0
				}
			}
		}
	}
}

// col2imChans scatters column-matrix rows back into the input gradient for
// channels-in-group [c0, c1), accumulating overlapping taps. It is the
// adjoint of im2colRows; parallel callers split by channel, whose target
// regions are disjoint.
func col2imChans[T Elem](dx, cols []T, s ConvShape, b, gi, c0, c1 int) {
	oh, ow := s.OutHW()
	ohw := oh * ow
	g := s.NormGroups()
	icg := s.InC / g
	kk := s.KH * s.KW
	for cg := c0; cg < c1; cg++ {
		c := gi*icg + cg
		dst := dx[(b*s.InC+c)*s.H*s.W : (b*s.InC+c+1)*s.H*s.W]
		for t := 0; t < kk; t++ {
			ky := t / s.KW
			kx := t % s.KW
			src := cols[(cg*kk+t)*ohw : (cg*kk+t+1)*ohw]
			for oy := 0; oy < oh; oy++ {
				iy := oy*s.Stride + ky - s.Pad
				if iy < 0 || iy >= s.H {
					continue
				}
				srow := src[oy*ow : (oy+1)*ow]
				for ox, v := range srow {
					ix := ox*s.Stride + kx - s.Pad
					if ix >= 0 && ix < s.W {
						dst[iy*s.W+ix] += v
					}
				}
			}
		}
	}
}

// Conv2DGrads computes the input and kernel gradients of Conv2D: given the
// output gradient gy it fills dx (same layout as x) and dk (same layout as
// k). Both are overwritten. The identities
//
//	<conv(x,k), gy> == <x, dx> == <k, dk>
//
// hold exactly in both element domains (the convolution is bilinear), which
// is what the property tests check. Batch/group blocks run serially with
// parallel GEMMs inside, so dk accumulation across the batch stays
// deterministic. The pass is im2col-lowered on both kernel paths; only its
// two GEMMs follow SetNaive.
func Conv2DGrads[T Elem](dx, dk, x, k, gy []T, s ConvShape) {
	s.check(len(gy), len(dx), len(dk))
	for i := range dx {
		dx[i] = 0
	}
	for i := range dk {
		dk[i] = 0
	}
	oh, ow := s.OutHW()
	ohw := oh * ow
	if ohw <= 0 {
		return
	}
	g := s.NormGroups()
	icg := s.InC / g
	ocg := s.OutC / g
	ckk := icg * s.KH * s.KW
	cols := make([]T, ckk*ohw)
	dcols := make([]T, ckk*ohw)
	colGrain := 1 + gemmFlopGrain/(ohw+1)
	for b := 0; b < s.N; b++ {
		for gi := 0; gi < g; gi++ {
			parallelFor(ckk, colGrain, func(lo, hi int) {
				im2colRows(cols, x, s, b, gi, lo, hi)
			})
			kmat := k[gi*ocg*ckk : (gi+1)*ocg*ckk]
			dkg := dk[gi*ocg*ckk : (gi+1)*ocg*ckk]
			gmat := gy[(b*s.OutC+gi*ocg)*ohw : (b*s.OutC+(gi+1)*ocg)*ohw]
			// dk_g += gmat (ocg×ohw) @ colsᵀ (ohw×ckk)
			MatMulTransBAcc(dkg, gmat, cols, ocg, ohw, ckk)
			// dcols = kmatᵀ (ckk×ocg) @ gmat (ocg×ohw)
			MatMulTransA(dcols, kmat, gmat, ocg, ckk, ohw)
			parallelFor(icg, 1+colGrain/(s.KH*s.KW+1), func(lo, hi int) {
				col2imChans(dx, dcols, s, b, gi, lo, hi)
			})
		}
	}
}
