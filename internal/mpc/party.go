package mpc

import (
	"fmt"

	"pasnet/internal/fixed"
	"pasnet/internal/kernel"
	"pasnet/internal/rng"
	"pasnet/internal/transport"
)

// Party is one of the two computing servers. Both parties execute the same
// protocol program; methods are symmetric and keep the two endpoints in
// lockstep through the shared transport.
type Party struct {
	// ID is 0 (model vendor) or 1 (client-facing server).
	ID int
	// Conn is the channel to the peer.
	Conn transport.Conn
	// Dealer is the live correlation generator constructed from the shared
	// seed. It is the default Source.
	Dealer *Dealer
	// Source supplies this party's halves of offline correlations. It
	// defaults to Dealer (lazy generation inside the online path); the
	// deployment split swaps in a preprocessed store (internal/corr)
	// without touching any op code. Nil falls back to Dealer.
	Source CorrelationSource
	// Codec fixes the fixed-point precision for truncation.
	Codec fixed.Codec64
	// Rand is this party's private randomness (ShareInput's masks).
	Rand *rng.RNG

	// scr holds scratch buffers reused across Beaver openings so the hot
	// open/combine phase allocates nothing after warm-up. A Party is not
	// safe for concurrent use, which is what makes the reuse sound.
	scr scratch
}

// scratch is the per-party reusable buffer set. The e/f views handed out
// by openPairUneven stay valid only until the next opening.
type scratch struct {
	mine, e, f, tmp, xe []uint64
	// own is an owned round's packed operand.
	own []uint64
}

// grow returns (*buf)[:n], reallocating only when capacity is short.
func grow(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	return (*buf)[:n]
}

// NewParty assembles a party endpoint. dealerSeed must match the peer's;
// privSeed must differ between parties.
func NewParty(id int, conn transport.Conn, dealerSeed, privSeed uint64, codec fixed.Codec64) *Party {
	if id != 0 && id != 1 {
		panic(fmt.Sprintf("mpc: party id must be 0 or 1, got %d", id))
	}
	d := NewDealer(dealerSeed, id)
	return &Party{
		ID:     id,
		Conn:   conn,
		Dealer: d,
		Source: d,
		Codec:  codec,
		Rand:   rng.New(privSeed),
	}
}

// corr returns the active correlation source, defaulting to the live
// dealer when none was installed.
func (p *Party) corr() CorrelationSource {
	if p.Source != nil {
		return p.Source
	}
	return p.Dealer
}

// ShareInput secret-shares a tensor held by owner. The owner passes the
// plaintext ring encoding; the other party passes nil. Both receive their
// additive share (paper: shr(x) = (r, x−r)). The receiver knows the exact
// share length from shape, so a frame claiming more is refused at its
// header, before any payload is allocated.
func (p *Party) ShareInput(owner int, secret []uint64, shape ...int) (Share, error) {
	sh := NewShare(shape...)
	if p.ID == owner {
		if len(secret) != len(sh.V) {
			return Share{}, fmt.Errorf("mpc: input length %d != shape %v", len(secret), shape)
		}
		mask := make([]uint64, len(secret))
		p.Rand.FillUint64(mask)
		out := make([]uint64, len(secret))
		ringSub(out, secret, mask)
		if err := p.Conn.SendUint64s(out); err != nil {
			return Share{}, fmt.Errorf("mpc: share input: %w", err)
		}
		copy(sh.V, mask)
		return sh, nil
	}
	v, err := p.Conn.RecvUint64sMax(len(sh.V))
	if err != nil {
		return Share{}, fmt.Errorf("mpc: receive input share of shape %v: %w", shape, err)
	}
	if len(v) != len(sh.V) {
		return Share{}, fmt.Errorf("mpc: received share length %d != shape %v", len(v), shape)
	}
	sh.V = v
	return sh, nil
}

// Reveal reconstructs the secret to both parties (paper: rec(⟦x⟧)).
func (p *Party) Reveal(sh Share) ([]uint64, error) {
	theirs, err := transport.Exchange(p.Conn, sh.V)
	if err != nil {
		return nil, fmt.Errorf("mpc: reveal: %w", err)
	}
	if len(theirs) != len(sh.V) {
		return nil, fmt.Errorf("mpc: reveal length %d != %d", len(theirs), len(sh.V))
	}
	out := make([]uint64, len(sh.V))
	ringAdd(out, sh.V, theirs)
	return out, nil
}

// RevealSend transmits this party's half of a reveal without waiting for
// the peer's. Together with RevealRecv it splits Reveal into its two wire
// directions, so a caller can time each (pi.Session.Query's reveal_send
// and reveal_recv phases). RevealSend(x) then RevealRecv(x) reconstructs
// exactly what Reveal(x) would, and the peer cannot tell the two apart.
func (p *Party) RevealSend(sh Share) error {
	if err := p.Conn.SendUint64s(sh.V); err != nil {
		return fmt.Errorf("mpc: reveal send: %w", err)
	}
	return nil
}

// RevealRecv receives the peer's reveal half, bounded to len(sh.V) words,
// and reconstructs the secret (see RevealSend).
func (p *Party) RevealRecv(sh Share) ([]uint64, error) {
	theirs, err := p.Conn.RecvUint64sMax(len(sh.V))
	if err != nil {
		return nil, fmt.Errorf("mpc: reveal recv: %w", err)
	}
	if len(theirs) != len(sh.V) {
		return nil, fmt.Errorf("mpc: reveal length %d != %d", len(theirs), len(sh.V))
	}
	out := make([]uint64, len(sh.V))
	ringAdd(out, sh.V, theirs)
	return out, nil
}

// RevealTo reconstructs the secret only at the named party, whose receive
// is bounded to len(sh.V) words; the other party returns nil.
func (p *Party) RevealTo(owner int, sh Share) ([]uint64, error) {
	if p.ID == owner {
		theirs, err := p.Conn.RecvUint64sMax(len(sh.V))
		if err != nil {
			return nil, fmt.Errorf("mpc: reveal-to recv: %w", err)
		}
		if len(theirs) != len(sh.V) {
			return nil, fmt.Errorf("mpc: reveal-to length %d != %d", len(theirs), len(sh.V))
		}
		out := make([]uint64, len(sh.V))
		ringAdd(out, sh.V, theirs)
		return out, nil
	}
	if err := p.Conn.SendUint64s(sh.V); err != nil {
		return nil, fmt.Errorf("mpc: reveal-to send: %w", err)
	}
	return nil, nil
}

// Add returns shares of x + y (local, paper Eq. 1).
func (p *Party) Add(x, y Share) Share {
	out := NewShare(x.Shape...)
	ringAdd(out.V, x.V, y.V)
	return out
}

// Sub returns shares of x − y (local).
func (p *Party) Sub(x, y Share) Share {
	out := NewShare(x.Shape...)
	ringSub(out.V, x.V, y.V)
	return out
}

// AddPublic adds a public ring constant vector to the secret: party 0
// absorbs it, party 1 copies through (x + c = (x0 + c) + x1).
func (p *Party) AddPublic(x Share, c []uint64) Share {
	out := x.Clone()
	if p.ID == 0 {
		ringAdd(out.V, x.V, c)
	}
	return out
}

// ScalePublicRaw multiplies by a public ring scalar without rescaling
// (used for integer scalars).
func (p *Party) ScalePublicRaw(x Share, s uint64) Share {
	out := NewShare(x.Shape...)
	ringScale(out.V, x.V, s)
	return out
}

// ScalePublic multiplies a fixed-point share by a public real scalar and
// truncates back to single precision.
func (p *Party) ScalePublic(x Share, s float64) Share {
	out := p.ScalePublicRaw(x, p.Codec.Encode(s))
	p.TruncateInPlace(&out)
	return out
}

// TruncateInPlace rescales a double-precision product share back to f
// fractional bits using SecureML local truncation: party 0 shifts its
// share arithmetically, party 1 shifts the negation. The reconstruction
// error is at most 1 ULP except with probability about |x|·2^(2f-63),
// which is why the executable ring is 64 bits wide (see fixed.Codec64).
func (p *Party) TruncateInPlace(x *Share) {
	f := p.Codec.FracBits
	v := x.V
	if p.ID == 0 {
		kernel.Range(len(v), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v[i] = uint64(int64(v[i]) >> f)
			}
		})
		return
	}
	kernel.Range(len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] = -uint64(int64(-v[i]) >> f)
		}
	})
}

// mulCombine assembles R_i = (X_i − i·E)∘F + E∘Y_i + Z_i, where ∘ is the
// bilinear op given by apply: the symmetric Beaver combine of MatMul and
// Conv2D, whose both operands are secret per call. This is paper Eq. 2
// with party 1's −E∘F folded into its X∘F term: ∘ distributes over ring
// subtraction exactly, so every share is bit-identical to the three-term
// form while each party applies ∘ twice, not three times. The fixed-weight
// ops do not use it: their owner-side combine (fixedmask.go) applies ∘ once
// per party.
func (p *Party) mulCombine(out, e, f, x, y, z []uint64, apply func(dst, a, b []uint64)) {
	if p.ID == 1 {
		xe := grow(&p.scr.xe, len(x))
		ringSub(xe, x, e)
		x = xe
	}
	tmp := grow(&p.scr.tmp, len(out))
	apply(out, x, f) // (X_i − i·E) ∘ F
	apply(tmp, e, y) // E ∘ Y_i
	ringAdd(out, out, tmp)
	ringAdd(out, out, z)
}

// openOne reveals E = x−a in one exchange round: the single opening of a
// Beaver square pair. The returned slice is a scratch view valid until the
// next opening.
func (p *Party) openOne(x, a []uint64) ([]uint64, error) {
	mine := grow(&p.scr.mine, len(x))
	ringSub(mine, x, a)
	theirs, err := transport.Exchange(p.Conn, mine)
	if err != nil {
		return nil, err
	}
	if len(theirs) != len(mine) {
		return nil, fmt.Errorf("mpc: open length %d != %d", len(theirs), len(mine))
	}
	e := grow(&p.scr.e, len(x))
	ringAdd(e, mine, theirs)
	return e, nil
}

// Square returns shares of x ⊙ x (fixed-point, truncated) using a Beaver
// square pair: R_i = Z_i + 2E∘A_i + i·E∘E with E = rec(x − a) (paper Eq. 3,
// with the E² term charged to one party so it is counted once).
func (p *Party) Square(x Share) (Share, error) {
	a, z, err := p.corr().TakeSquare(x.Len())
	if err != nil {
		return Share{}, fmt.Errorf("mpc: square pair: %w", err)
	}
	e, err := p.openOne(x.V, a)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: square open: %w", err)
	}
	out := NewShare(x.Shape...)
	tmp := grow(&p.scr.tmp, x.Len())
	ringMul(tmp, e, a) // E ∘ A_i
	for i := range out.V {
		out.V[i] = z[i] + 2*tmp[i]
	}
	if p.ID == 1 {
		ringMul(tmp, e, e)
		ringAdd(out.V, out.V, tmp)
	}
	p.TruncateInPlace(&out)
	return out, nil
}

// MatMul returns truncated fixed-point shares of x (m×k) @ y (k×n).
func (p *Party) MatMul(x, y Share) (Share, error) {
	if len(x.Shape) != 2 || len(y.Shape) != 2 || x.Shape[1] != y.Shape[0] {
		return Share{}, fmt.Errorf("mpc: matmul shapes %v x %v", x.Shape, y.Shape)
	}
	m, k, n := x.Shape[0], x.Shape[1], y.Shape[1]
	a, b, z, err := p.corr().TakeMatMul(m, k, n)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: matmul triple: %w", err)
	}
	e, f, err := p.openPairUneven(x.V, a, y.V, b)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: matmul open: %w", err)
	}
	out := NewShare(m, n)
	p.mulCombine(out.V, e, f, x.V, y.V, z, matMulOp(m, k, n))
	p.TruncateInPlace(&out)
	return out, nil
}

// Conv2D returns truncated fixed-point shares of conv(x, w) for the given
// geometry (paper's 2PC-Conv, Eq. 16's communication pattern: one opening
// exchange).
func (p *Party) Conv2D(x, w Share, dims ConvDims) (Share, error) {
	if x.Len() != dims.InLen() || w.Len() != dims.KLen() {
		return Share{}, fmt.Errorf("mpc: conv dims mismatch: x %d vs %d, w %d vs %d",
			x.Len(), dims.InLen(), w.Len(), dims.KLen())
	}
	a, b, z, err := p.corr().TakeConv(dims)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: conv triple: %w", err)
	}
	e, f, err := p.openPairUneven(x.V, a, w.V, b)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: conv open: %w", err)
	}
	oh, ow := dims.OutHW()
	out := NewShare(dims.N, dims.OutC, oh, ow)
	p.mulCombine(out.V, e, f, x.V, w.V, z, convOp(dims))
	p.TruncateInPlace(&out)
	return out, nil
}

// openPairUneven opens E = x−a and F = y−b of possibly different lengths
// in one exchange round: the opening of MatMul and Conv2D. The returned
// slices are scratch views valid until the next opening; the transport
// copies outgoing payloads before Exchange returns, so reusing mine across
// openings is safe.
func (p *Party) openPairUneven(x, a, y, b []uint64) (e, f []uint64, err error) {
	nx, ny := len(x), len(y)
	mine := grow(&p.scr.mine, nx+ny)
	ringSub(mine[:nx], x, a)
	ringSub(mine[nx:], y, b)
	theirs, err := transport.Exchange(p.Conn, mine)
	if err != nil {
		return nil, nil, err
	}
	if len(theirs) != nx+ny {
		return nil, nil, fmt.Errorf("mpc: open length %d != %d", len(theirs), nx+ny)
	}
	e = grow(&p.scr.e, nx)
	f = grow(&p.scr.f, ny)
	ringAdd(e, mine[:nx], theirs[:nx])
	ringAdd(f, mine[nx:], theirs[nx:])
	return e, f, nil
}

// bitAnd is the owned product over packed bits: XOR shares of x AND y
// bitwise for bits x that party 1 holds whole and bits y that party 0 holds
// whole, each party passing its own as mine. On owner-split AND triples
// party 1 sends x ⊕ a and party 0 sends y ⊕ b, one exchange of ⌈n/64⌉
// words each way, and the shares are (x ⊕ a) ∧ y ⊕ c0 on party 0 and
// a ∧ (y ⊕ b) ⊕ c1 on party 1. ownedRound evaluates functions of
// XOR-shared bits on it.
func (p *Party) bitAnd(mine BitShare) (BitShare, error) {
	ta, tb, tc, err := p.corr().TakeBits(mine.N)
	if err != nil {
		return BitShare{}, fmt.Errorf("mpc: bit triples: %w", err)
	}
	mask, op := tb.W, mine.W // party 0 masks y with b and ANDs with y
	if p.ID == 1 {
		mask, op = ta.W, ta.W // party 1 masks x with a and ANDs with a
	}
	nw := len(mine.W)
	sent := grow(&p.scr.mine, nw)
	for i, w := range mine.W {
		sent[i] = w ^ mask[i]
	}
	theirs, err := transport.Exchange(p.Conn, sent)
	if err != nil {
		return BitShare{}, fmt.Errorf("mpc: bitAnd open: %w", err)
	}
	if len(theirs) != nw {
		return BitShare{}, fmt.Errorf("mpc: bitAnd open length %d != %d", len(theirs), nw)
	}
	out := NewBitShare(mine.N)
	for i := range out.W {
		out.W[i] = theirs[i]&op[i] ^ tc.W[i]
	}
	return out, nil
}

// selectBits returns shares of b ⊙ x for XOR-shared selector bits b — the
// multiplexer closing ReLU, max and argmax — in one exchange. With
// b = b0 ⊕ b1 = b0 + b1 − 2·b0·b1 and x = x0 + x1,
//
//	b·x = b0·x0 + b1·x1 + b1·y0 + b0·y1,    yi = xi(1−2bi):
//
// two local terms and two bit×ring products of one party's bit and the
// other's word. On a selector triple (see Stream.Hadamard) party i sends
// its bits masked with its dealt bits, di = bi ⊕ ci, one bit each, and yi
// masked with its dealt words, ei = yi − ri, one word each. Since
// bj = dj + (1−2dj)·cj and yi = ei + ri, each cross term is
//
//	bj·yi = dj·yi + (1−2dj)·(cj·ei + cj·ri),
//
// the first term local to party i, cj·ei local to party j, and cj·ri the
// triple's z; so party 0's share is
//
//	b0x0 + d1y0 + (1−2d1)·z0[:n] + (1−2d0)·(c0e1 + z0[n:])
//
// and party 1's b1x1 + (1−2d1)·(c1e0 + z1[:n]) + d0y1 + (1−2d0)·z1[n:].
// Each party sees the other's bits and words only under masks it never
// holds. The selector is an unscaled integer, so the result keeps x's
// fixed-point scale and needs no truncation.
func (p *Party) selectBits(bits BitShare, x Share) (Share, error) {
	n := x.Len()
	if bits.N != n {
		return Share{}, fmt.Errorf("mpc: select: %d bits for %d values", bits.N, n)
	}
	a, b, z, err := p.corr().TakeHadamard(n)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: select: selector triple: %w", err)
	}
	// zPeer is this party's share of the peer's bits times its words, zOwn
	// of its bits times the peer's.
	mine, zPeer, zOwn := b, z[:n], z[n:]
	if p.ID == 1 {
		mine, zPeer, zOwn = a, z[n:], z[:n]
	}
	nw := BitWords(n)
	c, r := mine[:nw], mine[nw:]
	sent := grow(&p.scr.mine, nw+n)
	for i, w := range bits.W {
		sent[i] = w ^ c[i]
	}
	out := NewShare(x.Shape...)
	for i, xi := range x.V {
		g := -bits.Bit(i)
		out.V[i] = g & xi
		sent[nw+i] = (xi ^ g - g) - r[i]
	}
	theirs, err := transport.Exchange(p.Conn, sent)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: select open: %w", err)
	}
	if len(theirs) != nw+n {
		return Share{}, fmt.Errorf("mpc: select open length %d != %d", len(theirs), nw+n)
	}
	// −d is all ones for d = 1: v^m − m is (1−2d)·v, m & v is d·v.
	for i := range out.V {
		w, s := i>>6, uint(i)&63
		mi, mj := -(sent[w] >> s & 1), -(theirs[w] >> s & 1)
		ci := -(c[w] >> s & 1)
		y := sent[nw+i] + r[i]
		own := ci&theirs[nw+i] + zOwn[i]
		out.V[i] += mj&y + (zPeer[i] ^ mj - mj) + (own ^ mi - mi)
	}
	return out, nil
}
