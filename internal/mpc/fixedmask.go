package mpc

import (
	"fmt"

	"pasnet/internal/rng"
	"pasnet/internal/transport"
)

// Fixed weight-mask correlations.
//
// Every flush of a session multiplies the *same* secret weights, yet the
// plain Beaver protocol re-masks them with a fresh b and re-opens W−b each
// time, so weight-side opening bytes and triple material scale with flush
// count. Because the weight side masks an identical value every flush,
// one mask per secret is the textbook amortization: fix b once per
// (session, layer), open F = W−b once at setup, and per flush draw only a
// fresh activation mask a together with z = a@b. The combine
// R_i = (X_i − i·E)∘F + E∘Y_i + Z_i then reconstructs x∘W exactly as in
// the per-flush scheme (the telescoping is identical; only where F comes
// from changes). The activation side must NOT be reused — opening x−a and
// x'−a for x ≠ x' reveals x−x'.
//
// b is a pure function of (dealer seed, mask slot, length), derived from a
// stream mixed out-of-band from both the dealer's main stream and the
// store's per-geometry stream. That keeps three invariants at once:
//   - the main-stream draw order per flush is independent of the mask, so
//     demand tapes Repeat() across flushes unchanged;
//   - a preprocessed store (whose stream seed differs from the live
//     dealer's) derives the same b, so store-fed ≡ live stays bit-exact
//     and a mid-session dealer fallback stays consistent with the F that
//     was opened at setup;
//   - b is independent of batch geometry, so stores provisioned for
//     different flush shapes share one opened F.
//
// Like the rest of the Dealer, deriving the plain b from the shared seed
// is the common-seed trusted-dealer *simulation* — it models offline-phase
// cost, not a secure offline protocol.

// fixedMaskTag domain-separates fixed-mask derivation from every other
// MixSeed use (store streams mix len(shape) first, a small integer).
const fixedMaskTag = 0x6d61736b2d666978 // "masq-fix"

// MaxFixedMask bounds mask slot ids accepted by dealers and stores.
const MaxFixedMask = 1 << 20

// fixedMaskRNG returns the derivation stream for one (seed, mask, n) slot.
func fixedMaskRNG(seed uint64, mask, n int) *rng.RNG {
	return rng.New(rng.MixSeed(seed, fixedMaskTag, uint64(mask), uint64(n)))
}

// FixedMaskPlain returns the plain fixed mask b for slot mask of length n
// under the given dealer seed. corr.Build uses it to replay z = a@b.
func FixedMaskPlain(seed uint64, mask, n int) []uint64 {
	plain := make([]uint64, n)
	fixedMaskRNG(seed, mask, n).FillUint64(plain)
	return plain
}

// fixedMaskMaterial returns the plain mask and both additive halves,
// split with the same mask-then-difference convention as SplitSecret so
// either party can derive its half locally.
func fixedMaskMaterial(seed uint64, mask, n int) (plain, half0, half1 []uint64) {
	r := fixedMaskRNG(seed, mask, n)
	plain = make([]uint64, n)
	half0 = make([]uint64, n)
	half1 = make([]uint64, n)
	r.FillUint64(plain)
	r.FillUint64(half0)
	ringSub(half1, plain, half0)
	return plain, half0, half1
}

// fixedMask is one session-pinned weight mask cached by the Dealer.
type fixedMask struct {
	n     int
	plain []uint64 // the shared b (both parties derive the same value)
	half  []uint64 // this party's additive half of b
}

// fixedMask returns the cached mask for slot id, deriving it on first use.
// A slot is pinned to the length it was first derived at: the mask wraps a
// session-constant tensor, so a length change means the caller attached
// the slot to a different value — a protocol bug worth failing loudly on.
func (d *Dealer) fixedMask(mask, n int) (*fixedMask, error) {
	if mask < 0 || mask > MaxFixedMask {
		return nil, fmt.Errorf("mpc: fixed mask slot %d out of range [0, %d]", mask, MaxFixedMask)
	}
	if n <= 0 {
		return nil, fmt.Errorf("mpc: fixed mask length %d must be positive", n)
	}
	if fm, ok := d.masks[mask]; ok {
		if fm.n != n {
			return nil, fmt.Errorf("mpc: fixed mask slot %d pinned to length %d, requested %d (a fixed mask may only mask one session-constant tensor)", mask, fm.n, n)
		}
		return fm, nil
	}
	plain, h0, h1 := fixedMaskMaterial(d.seed, mask, n)
	fm := &fixedMask{n: n, plain: plain, half: h0}
	if d.party == 1 {
		fm.half = h1
	}
	if d.masks == nil {
		d.masks = make(map[int]*fixedMask)
	}
	d.masks[mask] = fm
	return fm, nil
}

// FixedMaskHalf returns this party's additive half of the fixed mask b for
// slot mask of length n. Party.OpenFixedW uses it to open F = W−b.
func (d *Dealer) FixedMaskHalf(mask, n int) ([]uint64, error) {
	fm, err := d.fixedMask(mask, n)
	if err != nil {
		return nil, err
	}
	return fm.half, nil
}

// MatMulFixedB returns shares (a, z) with z = a@b against the fixed mask b
// (k×p) for slot mask, a fresh m×k. Main-stream draw order is fill(a),
// pick(a), pick(z) — b never touches the main stream, so the per-flush
// demand sequence is mask-independent.
func (d *Dealer) MatMulFixedB(mask, m, k, p int) (a, z []uint64, err error) {
	fm, err := d.fixedMask(mask, k*p)
	if err != nil {
		return nil, nil, err
	}
	d.Issued++
	plainA := make([]uint64, m*k)
	plainZ := make([]uint64, m*p)
	d.r.FillUint64(plainA)
	ringMatMul(plainZ, plainA, fm.plain, m, k, p)
	return d.pick(plainA), d.pick(plainZ), nil
}

// ConvFixedB returns shares (a, z) with z = conv(a, b) against the fixed
// kernel mask b for slot mask and the given geometry.
func (d *Dealer) ConvFixedB(mask int, dims ConvDims) (a, z []uint64, err error) {
	fm, err := d.fixedMask(mask, dims.KLen())
	if err != nil {
		return nil, nil, err
	}
	d.Issued++
	plainA := make([]uint64, dims.InLen())
	plainZ := make([]uint64, dims.OutLen())
	d.r.FillUint64(plainA)
	ringConv2D(plainZ, plainA, fm.plain, dims)
	return d.pick(plainA), d.pick(plainZ), nil
}

// TakeMatMulFixedB implements CorrelationSource.
func (d *Dealer) TakeMatMulFixedB(mask, m, k, p int) (a, z []uint64, err error) {
	return d.MatMulFixedB(mask, m, k, p)
}

// TakeConvFixedB implements CorrelationSource.
func (d *Dealer) TakeConvFixedB(mask int, dims ConvDims) (a, z []uint64, err error) {
	return d.ConvFixedB(mask, dims)
}

// FixedWeight is the session-cached public opening F = W−b of one weight
// tensor under its fixed mask. It is pinned to the dealer stream and the
// exact share values it was opened against; the FixedW ops re-validate
// both so a mask can never silently outlive its value (reviving a pair at
// a new generation, or mutating the weight share, must mint a fresh one).
type FixedWeight struct {
	// Mask is the mask slot id (the layer's weight index).
	Mask int
	// F is the public opened W−b.
	F []uint64
	// seed pins the dealer stream that minted b.
	seed uint64
	// sum fingerprints the weight share value at open time.
	sum uint64
}

// hashWords is an FNV-1a-style fold over whole words (one xor and one
// multiply per word), used to detect a weight share changing under a fixed
// mask. Each step is a bijection of the running state, so two shares that
// differ in any single word always hash differently.
func hashWords(v []uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range v {
		h = (h ^ w) * prime
	}
	return h
}

// OpenFixedW opens F = w−b for the fixed mask slot in one exchange round.
// Call it once per session right after sharing the weight; the returned
// FixedWeight feeds every subsequent MatMulFixedW/Conv2DFixedW on that
// layer.
func (p *Party) OpenFixedW(mask int, w Share) (*FixedWeight, error) {
	half, err := p.Dealer.FixedMaskHalf(mask, w.Len())
	if err != nil {
		return nil, fmt.Errorf("mpc: open fixed weight: %w", err)
	}
	mine := make([]uint64, w.Len())
	ringSub(mine, w.V, half)
	theirs, err := transport.Exchange(p.Conn, mine)
	if err != nil {
		return nil, fmt.Errorf("mpc: open fixed weight: %w", err)
	}
	if len(theirs) != len(mine) {
		return nil, fmt.Errorf("mpc: open fixed weight length %d != %d", len(theirs), len(mine))
	}
	f := make([]uint64, len(mine))
	ringAdd(f, mine, theirs)
	return &FixedWeight{Mask: mask, F: f, seed: p.Dealer.Seed(), sum: hashWords(w.V)}, nil
}

// checkFixedW validates that fw is still a sound opening of w under this
// party's dealer stream.
func (p *Party) checkFixedW(fw *FixedWeight, w Share) error {
	if fw == nil {
		return fmt.Errorf("mpc: nil fixed weight")
	}
	if fw.seed != p.Dealer.Seed() {
		return fmt.Errorf("mpc: fixed weight for mask %d was opened under dealer seed %#x, session runs %#x — a revived generation must re-open W−b, not inherit the old F", fw.Mask, fw.seed, p.Dealer.Seed())
	}
	if len(fw.F) != w.Len() {
		return fmt.Errorf("mpc: fixed weight mask %d length %d != weight length %d", fw.Mask, len(fw.F), w.Len())
	}
	if hashWords(w.V) != fw.sum {
		return fmt.Errorf("mpc: weight share under fixed mask %d changed since W−b was opened — a fixed mask may only mask a session-constant value", fw.Mask)
	}
	return nil
}

// openOne reveals E = x−a in one exchange round (the activation-only
// opening of the fixed weight-mask ops; the square protocol shares it).
// The returned slice is a scratch view valid until the next opening.
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

// MatMulFixedW returns truncated fixed-point shares of x (m×k) @ w (k×n)
// where w is session-constant and fw caches its opened F = W−b. Only the
// activation side is opened, halving the per-flush opening bytes of
// MatMul's openPairUneven.
func (p *Party) MatMulFixedW(x, w Share, fw *FixedWeight) (Share, error) {
	if len(x.Shape) != 2 || len(w.Shape) != 2 || x.Shape[1] != w.Shape[0] {
		return Share{}, fmt.Errorf("mpc: matmul shapes %v x %v", x.Shape, w.Shape)
	}
	if err := p.checkFixedW(fw, w); err != nil {
		return Share{}, err
	}
	m, k, n := x.Shape[0], x.Shape[1], w.Shape[1]
	a, z, err := p.corr().TakeMatMulFixedB(fw.Mask, m, k, n)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: matmul fixed-b pair: %w", err)
	}
	e, err := p.openOne(x.V, a)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: matmul open: %w", err)
	}
	out := NewShare(m, n)
	apply := func(dst, aa, bb []uint64) { ringMatMul(dst, aa, bb, m, k, n) }
	p.mulCombine(out.V, e, fw.F, x.V, w.V, z, apply)
	p.TruncateInPlace(&out)
	return out, nil
}

// Conv2DFixedW returns truncated fixed-point shares of conv(x, w) with the
// session-constant kernel w under its cached opened F = W−b (see
// MatMulFixedW).
func (p *Party) Conv2DFixedW(x, w Share, fw *FixedWeight, dims ConvDims) (Share, error) {
	if x.Len() != dims.InLen() || w.Len() != dims.KLen() {
		return Share{}, fmt.Errorf("mpc: conv dims mismatch: x %d vs %d, w %d vs %d",
			x.Len(), dims.InLen(), w.Len(), dims.KLen())
	}
	if err := p.checkFixedW(fw, w); err != nil {
		return Share{}, err
	}
	a, z, err := p.corr().TakeConvFixedB(fw.Mask, dims)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: conv fixed-b pair: %w", err)
	}
	e, err := p.openOne(x.V, a)
	if err != nil {
		return Share{}, fmt.Errorf("mpc: conv open: %w", err)
	}
	oh, ow := dims.OutHW()
	out := NewShare(dims.N, dims.OutC, oh, ow)
	apply := func(dst, aa, bb []uint64) { ringConv2D(dst, aa, bb, dims) }
	p.mulCombine(out.V, e, fw.F, x.V, w.V, z, apply)
	p.TruncateInPlace(&out)
	return out, nil
}
