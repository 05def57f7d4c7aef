package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file holds the convolution entry points: the one forward lowering
// (ConvPlan, which Conv2D builds and runs once), the naive reference loops
// it is pinned to, and the im2col lowering of the training backward pass.
// The forward lowering multiplies only the taps that fall inside the input
// map, grouped by window class (see ConvPlan); the backward pass still
// runs over the padded receptive field.

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
// reference loops when SetNaive is on). It packs k into a ConvPlan and runs
// it once; a caller that convolves against the same kernel again builds the
// plan itself and keeps it.
func Conv2D[T Elem](out, x, k []T, s ConvShape) {
	s.check(len(out), len(x), len(k))
	if Naive() {
		Conv2DNaive(out, x, k, s)
		return
	}
	var p ConvPlan[T]
	p.build(k, s)
	p.run(out, x, s.N)
}

// ConvPlan is a convolution kernel packed for one geometry, the batch size
// aside: Run convolves any number of input rows with it, so a kernel that
// is constant across calls — a served layer's weights, a session's fixed
// weight mask — is packed once instead of once per call.
//
// The lowering multiplies only taps that fall inside the input map. An
// output row oy reads kernel rows [max(0, −iy0), min(KH, H−iy0)) of its
// receptive field, iy0 = oy·Stride − Pad, and likewise per column. Both
// ends of that window move monotonically with oy, so the output rows split
// into runs that share one row window (top border, interior, bottom
// border), and the columns likewise. A class is one (row run, column run)
// rectangle of output positions: all of its positions read the same taps,
// so each (group, class) is one transposed GEMM, outᵀ = colsᵀ · Kᵀ, whose
// rows are the class's positions over every batch row, whose columns are
// the group's output channels and whose k extent is the class's in-bounds
// (channel, ky, kx) taps. A 3×3 pad-1 conv has at most 9 classes, and on a
// 1×1 map one, whose K is the centre tap alone. A row panel is tileM
// positions, and lane r's tap p is x[base_r + taps[p]]: a position's input
// base (its class window's first tap) plus the class's tap offset, read
// straight from the NCHW input, so no im2col matrix is materialised and no
// lane ever reads padding. The plan holds each class's Kᵀ column strips;
// each tile is stored back into NCHW through per-position output offsets
// and the OH·OW channel stride. The bases and offsets of every panel at a
// batch size are one table (convLanes), kept for the size the plan last
// ran at. Which body runs a panel follows microStrips': in the ring on an
// AVX-512 CPU the assembly tile broadcasts each lane's taps from x in
// place and walks a chunk's panels of a (group, class) in one call
// (ringConvTiles); otherwise, and for float64 always, each panel is packed
// (packClassPanel) and run on the Go microTile. The taps a class multiplies
// are exactly the ones the naive loops do not skip, in the same (c, ky, kx)
// order, so float64 results are bit-identical and ring results exactly
// equal.
//
// A ConvPlan is immutable once built, but for the position table it
// keeps for its last batch size (swapped atomically, so a Run at another
// size builds its own), and safe for concurrent Runs. It keeps a
// reference to k for the SetNaive path, so k must not change while the
// plan is in use.
type ConvPlan[T Elem] struct {
	s       ConvShape // the geometry, N = 0
	k       []T       // the kernel it was packed from
	classes []convClass
	taps    []int // every class's tap offsets, class after class
	kp      []T   // per group, per class: the class's Kᵀ strips
	gstride int   // kp words per group
	maxK    int   // the widest class's k extent
	macs    int   // in-bounds taps per output channel and batch row
	// lanes is the position table of the batch size the plan last ran at.
	lanes atomic.Pointer[convLanes]
}

// convClass is one rectangle of output positions that share a kernel
// window: rows [oy0, oy0+h) × columns [ox0, ox0+w), reading kernel rows
// [ky0, ky1) × columns [kx0, kx1). Its k = icg·(ky1−ky0)·(kx1−kx0) taps are
// taps[t0:t0+k], each an input offset from the window's first tap,
// (ky0, kx0), in the group's first channel, so they start at 0 and only
// grow. Its Kᵀ strips start at word kp of each group's span of the plan's
// kp; the strip of output channels [j0, j0+tileN) is the k·tileN words
// from kp + j0·k.
type convClass struct {
	oy0, ox0, h, w int
	ky0, ky1       int
	kx0, kx1       int
	k, t0, kp      int
}

// convRun is one run of output rows (or columns) sharing a kernel window.
type convRun struct{ o0, n, k0, k1 int }

// convRuns splits out output rows into runs of equal kernel window for a
// map of size in, a kernel of size kk and the shape's stride and pad. It
// calls fn once per run, in order, and returns the run count.
func convRuns(out, in, kk, stride, pad int, fn func(convRun)) int {
	runs := 0
	var cur convRun
	for o := 0; o < out; o++ {
		i0 := o*stride - pad
		k0 := max(0, -i0)
		k1 := max(min(kk, in-i0), k0)
		if o > 0 && k0 == cur.k0 && k1 == cur.k1 {
			cur.n++
			continue
		}
		if o > 0 && fn != nil {
			fn(cur)
		}
		cur = convRun{o0: o, n: 1, k0: k0, k1: k1}
		runs++
	}
	if runs > 0 && fn != nil {
		fn(cur)
	}
	return runs
}

// NewConvPlan packs k for the geometry s; s.N is ignored, Run takes it.
func NewConvPlan[T Elem](k []T, s ConvShape) *ConvPlan[T] {
	s.N = 0
	s.check(0, 0, len(k))
	p := new(ConvPlan[T])
	p.build(k, s)
	return p
}

// Shape returns the geometry the plan was built for, with N = 0.
func (p *ConvPlan[T]) Shape() ConvShape { return p.s }

// Run computes out = conv(x, k) for n batch rows of x (or runs the naive
// reference loops against k when SetNaive is on).
func (p *ConvPlan[T]) Run(out, x []T, n int) {
	s := p.s
	s.N = n
	s.check(len(out), len(x), len(p.k))
	if Naive() {
		Conv2DNaive(out, x, p.k, s)
		return
	}
	p.run(out, x, n)
}

// build fills p for k and s (whose lengths the caller has checked): the
// class table, the tap offsets and every (group, class) Kᵀ strip.
func (p *ConvPlan[T]) build(k []T, s ConvShape) {
	s.N = 0
	p.s, p.k = s, k
	oh, ow := s.OutHW()
	if oh <= 0 || ow <= 0 {
		return
	}
	g := s.NormGroups()
	icg, ocg := s.InC/g, s.OutC/g
	nr := convRuns(oh, s.H, s.KH, s.Stride, s.Pad, nil)
	nc := convRuns(ow, s.W, s.KW, s.Stride, s.Pad, nil)
	p.classes = make([]convClass, 0, nr*nc)
	ntaps := 0
	convRuns(oh, s.H, s.KH, s.Stride, s.Pad, func(r convRun) {
		convRuns(ow, s.W, s.KW, s.Stride, s.Pad, func(c convRun) {
			kc := icg * (r.k1 - r.k0) * (c.k1 - c.k0)
			p.classes = append(p.classes, convClass{
				oy0: r.o0, h: r.n, ky0: r.k0, ky1: r.k1,
				ox0: c.o0, w: c.n, kx0: c.k0, kx1: c.k1,
				k: kc, t0: ntaps,
			})
			ntaps += kc
		})
	})
	strips := (ocg + tileN - 1) / tileN
	p.taps = make([]int, ntaps)
	p.gstride = strips * tileN * ntaps
	p.kp = make([]T, g*p.gstride)
	ckk := icg * s.KH * s.KW
	for ci := range p.classes {
		c := &p.classes[ci]
		c.kp = strips * tileN * c.t0
		p.maxK = max(p.maxK, c.k)
		p.macs += c.h * c.w * c.k
		offs := p.taps[c.t0 : c.t0+c.k]
		t := 0
		for cg := 0; cg < icg; cg++ {
			for ky := c.ky0; ky < c.ky1; ky++ {
				for kx := c.kx0; kx < c.kx1; kx++ {
					offs[t] = (cg*s.H+ky-c.ky0)*s.W + kx - c.kx0
					t++
				}
			}
		}
		for gi := 0; gi < g; gi++ {
			gkp := p.kp[gi*p.gstride+c.kp:]
			for j0 := 0; j0 < ocg; j0 += tileN {
				packClassStrip(gkp[j0*c.k:(j0+tileN)*c.k], k[(gi*ocg+j0)*ckk:], c, s, icg, ckk, min(tileN, ocg-j0))
			}
		}
	}
}

// packClassStrip packs the Kᵀ column strip of nr output channels, the
// first one's kernel at kc[0:ckk], over class c's taps: tap p of channel
// jj goes to bp[p·tileN + jj], and lanes past nr are zero.
func packClassStrip[T Elem](bp, kc []T, c *convClass, s ConvShape, icg, ckk, nr int) {
	if nr < tileN {
		clear(bp)
	}
	var k0, k1, k2, k3 []T
	if nr == tileN {
		k0, k1, k2, k3 = kc[:ckk:ckk], kc[ckk:2*ckk:2*ckk], kc[2*ckk:3*ckk:3*ckk], kc[3*ckk:4*ckk:4*ckk]
	}
	p := 0
	for cg := 0; cg < icg; cg++ {
		for ky := c.ky0; ky < c.ky1; ky++ {
			row := (cg*s.KH + ky) * s.KW
			for i := row + c.kx0; i < row+c.kx1; i++ {
				q := bp[p : p+tileN : p+tileN]
				if nr == tileN {
					q[0], q[1], q[2], q[3] = k0[i], k1[i], k2[i], k3[i]
				} else {
					for jj := 0; jj < nr; jj++ {
						q[jj] = kc[jj*ckk+i]
					}
				}
				p += tileN
			}
		}
	}
}

// run is Run past the checks: every (group, class) GEMM over n batch rows,
// its row panels (convLanes) the unit parallelFor splits. In the ring on
// the vector path the tile reads each lane's taps from x in place
// (ringConvTiles) and one call runs a chunk's panels of one (group,
// class); otherwise each panel is packed (packClassPanel) and reduced by
// microStrips.
func (p *ConvPlan[T]) run(out, x []T, n int) {
	s, classes, taps, kp, gstride := p.s, p.classes, p.taps, p.kp, p.gstride
	oh, ow := s.OutHW()
	ohw := oh * ow
	if ohw <= 0 || n <= 0 {
		return
	}
	g := s.NormGroups()
	icg, ocg := s.InC/g, s.OutC/g
	xgroup, ogroup := icg*s.H*s.W, ocg*ohw
	l := p.lanesFor(n)
	np := l.start[len(classes)]
	_, vec := any(out).([]uint64)
	vec = vec && useRingVec
	// A panel's work is tileM·K·ocg multiplies; p.macs/ohw is the mean K.
	grain := 1 + gemmFlopGrain/(tileM*max(1, p.macs/ohw)*ocg)
	parallelFor(g*np, grain, func(lo, hi int) {
		var ap []T
		if !vec {
			buf := getPanel[T](tileM * p.maxK)
			defer panelPool.Put(buf)
			ap = *buf
		}
		// u walks the chunk's panels: panel q of group gi, in class ci.
		for u := lo; u < hi; {
			gi, q, ci := u/np, u%np, 0
			for l.start[ci+1] <= q {
				ci++
			}
			c := &classes[ci]
			q1 := min(l.start[ci+1], q+hi-u)
			pos := l.pos[q*2*tileM : q1*2*tileM]
			offs := taps[c.t0 : c.t0+c.k]
			xg, og := x[gi*xgroup:], out[gi*ogroup:]
			bp := kp[gi*gstride+c.kp:]
			if vec {
				ringConvTiles(any(og).([]uint64), any(xg).([]uint64), offs, any(bp).([]uint64), pos, ocg, ohw)
			} else {
				a := ap[: tileM*c.k : tileM*c.k]
				var base, rows [tileM]int
				for ; len(pos) > 0; pos = pos[2*tileM:] {
					copy(base[:], pos[:tileM])
					copy(rows[:], pos[tileM:2*tileM])
					packClassPanel(a, xg, offs, &base)
					microStrips(og, a, bp, c.k, &rows, ohw, tileM, ocg, false)
				}
			}
			u += q1 - q
		}
	})
}

// convLanes is a plan's position table at one batch size: each class's
// output positions over all n batch rows, in (batch row, class row, class
// column) order, cut into panels of tileM lanes. Class ci's panels are
// [start[ci], start[ci+1]); panel q is pos[q·2·tileM:], its lanes' input
// bases (the offset of the class's first tap, its taps[c.t0] being 0, in
// the group's first channel) then their output offsets in the group's
// first channel. Both only grow along a class. Lanes past a class's last
// position repeat it: they compute that position's words again and store
// them to the same place, so no tile needs a live-row count.
type convLanes struct {
	n     int
	start []int
	pos   []int
}

// lanesFor returns the plan's position table at n batch rows, building it
// on a batch size the plan last ran at another.
func (p *ConvPlan[T]) lanesFor(n int) *convLanes {
	if l := p.lanes.Load(); l != nil && l.n == n {
		return l
	}
	s := p.s
	oh, ow := s.OutHW()
	ohw := oh * ow
	nc := len(p.classes)
	buf := make([]int, nc+1, nc+1+2*(n*ohw+tileM*nc))
	l := &convLanes{n: n, start: buf}
	pos := buf[len(buf):]
	xbatch, obatch := s.InC*s.H*s.W, s.OutC*ohw
	for ci := range p.classes {
		c := &p.classes[ci]
		l.start[ci] = len(pos) / (2 * tileM)
		var xb, ob [tileM]int
		lane := 0
		for b := 0; b < n; b++ {
			for oy := c.oy0; oy < c.oy0+c.h; oy++ {
				for ox := c.ox0; ox < c.ox0+c.w; ox++ {
					iy, ix := oy*s.Stride-s.Pad+c.ky0, ox*s.Stride-s.Pad+c.kx0
					xb[lane], ob[lane] = b*xbatch+iy*s.W+ix, b*obatch+oy*ow+ox
					if lane++; lane == tileM {
						pos = append(append(pos, xb[:]...), ob[:]...)
						lane = 0
					}
				}
			}
		}
		if lane > 0 {
			for r := lane; r < tileM; r++ {
				xb[r], ob[r] = xb[lane-1], ob[lane-1]
			}
			pos = append(append(pos, xb[:]...), ob[:]...)
		}
	}
	l.start[nc] = len(pos) / (2 * tileM)
	l.pos = pos
	p.lanes.Store(l)
	return l
}

// panelPool pools the A panels ConvPlan.run packs into on the Go body. A
// plan is shared by concurrent Runs, so each worker chunk takes a panel
// here and returns it when the chunk ends; a panel of the other element
// domain, or one too short, is dropped.
var panelPool sync.Pool

// getPanel returns a pooled panel of at least n elements.
func getPanel[T Elem](n int) *[]T {
	if b, ok := panelPool.Get().(*[]T); ok && len(*b) >= n {
		return b
	}
	b := make([]T, n)
	return &b
}

// packClassPanel packs one colsᵀ panel, k-major with the tileM position
// lanes interleaved: lane ii's tap p is x[base[ii] + offs[p]]. Every tap of
// a class lies inside the map, so no lane needs a bounds test.
func packClassPanel[T Elem](ap, x []T, offs []int, base *[tileM]int) {
	b0, b1, b2, b3, b4, b5 := base[0], base[1], base[2], base[3], base[4], base[5]
	for p, o := range offs {
		a := ap[p*tileM : p*tileM+tileM : p*tileM+tileM]
		a[0], a[1], a[2] = x[b0+o], x[b1+o], x[b2+o]
		a[3], a[4], a[5] = x[b3+o], x[b4+o], x[b5+o]
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
