package mpc

import (
	"fmt"
	"sync/atomic"

	"pasnet/internal/kernel"
	"pasnet/internal/rng"
	"pasnet/internal/transport"
)

// Fixed weight-mask correlations and the owner-side linear protocol.
//
// Every flush of a session multiplies the *same* secret weights, yet the
// plain Beaver protocol re-masks them with a fresh b and re-opens W−b each
// time, so weight-side opening bytes and triple material scale with flush
// count. Because the weight side masks an identical value every flush,
// one mask per secret is the textbook amortization: fix b once per
// (session, layer), open F = W−b once at setup, and per flush draw only a
// fresh activation mask a together with z = a∘b.
//
// With F public, party 0 (the model vendor) can hold W = F + b outright,
// and the activation mask need only be party 1's. So a linear op runs
// owner-side, one-way and one kernel pass per party:
//
//	party 1: send E' = X₁ − a;          R₁ = a∘F + z₁
//	party 0: receive E';                R₀ = (X₀ + E')∘W + z₀
//
// R₀ + R₁ = (x − a)∘W + a∘F + a∘b = x∘W. Party 0 sees only X₁ under the
// uniform mask a; party 1 receives nothing; and R₁ = a∘W − z₀ is uniform
// through z₀, so local truncation behaves exactly as for a Beaver product.
// Party 0 may know b: it masks nothing but party 0's own W.
//
// One activation tensor is masked once per flush, however many linear ops
// read it. When two ops take the same input — a downsampling residual's
// first body conv and its 1×1 shortcut — LinearFixedW runs them as one
// owner-side op: one a, one E' = X₁ − a on the wire, and per op i its own
// zᵢ = a∘bᵢ (the second dealt as a shared-mask FixedB correlation that
// draws no a) and its own kernel pass on each party. Party 0 learns
// nothing more: it sees the one masked value it saw before. The
// activation side must NOT be reused across different values — sending
// x−a and x'−a for x ≠ x' reveals x−x' — so a shared mask only ever
// follows the FixedB take that masked the very same tensor.
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
// Like the rest of the Stream, deriving the plain b from the shared seed
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
// under the given dealer seed.
func FixedMaskPlain(seed uint64, mask, n int) []uint64 {
	plain := make([]uint64, n)
	fixedMaskRNG(seed, mask, n).FillUint64(plain)
	return plain
}

// fixedMaskMaterial returns the plain mask and both additive halves, split
// mask-then-difference (party 0's half drawn after the plain mask, party
// 1's the difference) so either party can derive its half locally.
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

// fixedMask returns the plain mask b of slot id, deriving it on first use
// (a half stream validates the slot and returns nil).
// A slot is pinned to the length it was first derived at: the mask wraps a
// session-constant tensor, so a length change means the caller attached
// the slot to a different value — a protocol bug worth failing loudly on.
func (s *Stream) fixedMask(mask, n int) ([]uint64, error) {
	if mask < 0 || mask > MaxFixedMask {
		return nil, fmt.Errorf("mpc: fixed mask slot %d out of range [0, %d]", mask, MaxFixedMask)
	}
	if n <= 0 {
		return nil, fmt.Errorf("mpc: fixed mask length %d must be positive", n)
	}
	if s.half() {
		return nil, nil // a half stream runs no product, so it needs no b
	}
	if b, ok := s.masks[mask]; ok {
		if len(b) != n {
			return nil, fmt.Errorf("mpc: fixed mask slot %d pinned to length %d, requested %d (a fixed mask may only mask one session-constant tensor)", mask, len(b), n)
		}
		return b, nil
	}
	b := FixedMaskPlain(s.maskSeed, mask, n)
	if s.masks == nil {
		s.masks = make(map[int][]uint64)
	}
	s.masks[mask] = b
	return b, nil
}

// FixedMaskHalf returns this party's additive half of the fixed mask b for
// slot mask of length n, under the stream's pinning rule. Party.OpenFixedWs
// uses it once per weight per session to open F = W−b; the halves are
// derived there, not cached, since nothing else needs them.
func (d *Dealer) FixedMaskHalf(mask, n int) ([]uint64, error) {
	if _, err := d.s.fixedMask(mask, n); err != nil {
		return nil, err
	}
	_, h0, h1 := fixedMaskMaterial(d.s.maskSeed, mask, n)
	if d.party == 0 {
		return h0, nil
	}
	return h1, nil
}

// FixedWeight is the session-cached public opening F = W−b of one weight
// tensor under its fixed mask, with the party's operand of the owner-side
// combine. It is pinned to the dealer stream and the exact share values it
// was opened against; the FixedW ops re-validate both so a mask can never
// silently outlive its value (reviving a pair at a new generation, or
// mutating the weight share, must mint a fresh one).
//
// For a convolution the operand is packed once, at the op's first flush,
// into a kernel.ConvPlan that every later flush runs; a re-opened weight
// is a new FixedWeight and packs anew. A FixedWeight must not be copied.
type FixedWeight struct {
	// Mask is the mask slot id (the layer's weight index).
	Mask int
	// F is the public opened W−b.
	F []uint64
	// op is what this party convolves with: W = F + b on party 0, F on
	// party 1.
	op []uint64
	// seed pins the dealer stream that minted b.
	seed uint64
	// sum fingerprints the weight share value at open time.
	sum uint64
	// plan is op packed for the conv geometry it last ran at.
	plan atomic.Pointer[kernel.ConvPlan[uint64]]
}

// convPlan returns the party's operand packed for the conv geometry d,
// packing it on first use and again only if the geometry changes. Two
// flushes racing to pack it build identical plans, so either may win.
func (fw *FixedWeight) convPlan(d ConvDims) *kernel.ConvPlan[uint64] {
	s := d.shape()
	s.N = 0
	if pl := fw.plan.Load(); pl != nil && pl.Shape() == s {
		return pl
	}
	pl := kernel.NewConvPlan(fw.op, s)
	fw.plan.Store(pl)
	return pl
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

// OpenFixedW opens F = w−b for one fixed mask slot in one exchange round:
// the one-weight call of OpenFixedWs. The returned FixedWeight feeds every
// subsequent MatMulFixedW/Conv2DFixedW on that layer.
func (p *Party) OpenFixedW(mask int, w Share) (*FixedWeight, error) {
	fws, err := p.OpenFixedWs([]int{mask}, []Share{w})
	if err != nil {
		return nil, err
	}
	return fws[0], nil
}

// OpenFixedWs opens F = w−b for every (slot, weight) pair in one exchange
// round, however many weights there are: each slot's half of b is derived
// under the stream's pinning rule, all the w−b halves travel in one frame,
// and one FixedWeight per weight comes back in argument order. Party 0
// also caches W = F + b there, b being its dealer's pinned mask. A session
// calls it once, after sharing its weights, so opening every layer's F
// costs one round trip instead of one per layer. With no weights it
// exchanges nothing.
func (p *Party) OpenFixedWs(masks []int, ws []Share) ([]*FixedWeight, error) {
	if len(masks) != len(ws) {
		return nil, fmt.Errorf("mpc: open fixed weights: %d mask slots for %d weights", len(masks), len(ws))
	}
	if len(ws) == 0 {
		return nil, nil
	}
	total := 0
	for _, w := range ws {
		total += w.Len()
	}
	mine := make([]uint64, total)
	off := 0
	for i, w := range ws {
		half, err := p.Dealer.FixedMaskHalf(masks[i], w.Len())
		if err != nil {
			return nil, fmt.Errorf("mpc: open fixed weight: %w", err)
		}
		ringSub(mine[off:off+w.Len()], w.V, half)
		off += w.Len()
	}
	theirs, err := transport.Exchange(p.Conn, mine)
	if err != nil {
		return nil, fmt.Errorf("mpc: open fixed weight: %w", err)
	}
	if len(theirs) != total {
		return nil, fmt.Errorf("mpc: open fixed weight length %d != %d", len(theirs), total)
	}
	// Exchange has finished sending mine, so it can hold the opened F.
	ringAdd(mine, mine, theirs)
	fws := make([]*FixedWeight, len(ws))
	off = 0
	for i, w := range ws {
		n := w.Len()
		f := mine[off : off+n : off+n]
		op := f
		if p.ID == 0 {
			b, err := p.Dealer.s.fixedMask(masks[i], n)
			if err != nil {
				return nil, fmt.Errorf("mpc: open fixed weight: %w", err)
			}
			op = make([]uint64, n)
			ringAdd(op, f, b)
		}
		fws[i] = &FixedWeight{Mask: masks[i], F: f, op: op, seed: p.Dealer.Seed(), sum: hashWords(w.V)}
		off += n
	}
	return fws, nil
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

// FixedWOp is one linear op of LinearFixedW: a session-constant weight
// share, its opened F = W−b, and the op's geometry — Conv for a
// convolution, nil for a matrix product of the input's rows by W (k×n).
//
// Out, when non-nil, is the op's destination: exactly its output's words,
// which the returned share then holds; nil allocates them. Bias, when
// non-nil, is the op's public bias encoded per output channel (a
// convolution's OutC, a product's n columns), which party 0 adds in the
// same pass that truncates — AddBias/AddBiasVec fused into the op.
type FixedWOp struct {
	W    Share
	FW   *FixedWeight
	Conv *ConvDims
	Out  []uint64
	Bias []uint64
}

// ownerLeg is one op of an owner-side combine: its z half, its map from
// the masked input to dst (a product with the party's fixed-weight
// operand), its output, and its bias (nil: none) with the words per
// output channel it repeats over.
type ownerLeg struct {
	z     []uint64
	apply func(dst, a []uint64)
	out   Share
	bias  []uint64
	inner int
}

// LinearFixedW returns truncated fixed-point shares of every op of ops
// applied to the one input x, in order, masking x once: the first op takes
// a FixedB pair (a, z₀), every later op a shared-mask z for that same a,
// party 1 sends E' = X₁ − a once, and each party runs one kernel pass per
// op (see the file comment), then one pass that adds z, truncates and adds
// the op's bias. With one op and neither Out nor Bias it is MatMulFixedW
// or Conv2DFixedW.
func (p *Party) LinearFixedW(x Share, ops ...FixedWOp) ([]Share, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("mpc: linear fixed-w: no ops")
	}
	for _, op := range ops {
		if err := checkFixedWOp(x, op); err != nil {
			return nil, err
		}
		if err := p.checkFixedW(op.FW, op.W); err != nil {
			return nil, err
		}
	}
	var a []uint64
	legs := make([]ownerLeg, len(ops))
	for i, op := range ops {
		l := &legs[i]
		var err error
		if d := op.Conv; d != nil {
			if i == 0 {
				a, l.z, err = p.corr().TakeConvFixedB(op.FW.Mask, *d)
			} else {
				l.z, err = p.corr().TakeConvFixedBShared(op.FW.Mask, *d)
			}
			if err != nil {
				return nil, fmt.Errorf("mpc: conv fixed-b pair: %w", err)
			}
			oh, ow := d.OutHW()
			l.out, l.inner = Share{Shape: []int{d.N, d.OutC, oh, ow}}, oh*ow
			plan, n := op.FW.convPlan(*d), d.N
			l.apply = func(dst, a []uint64) { plan.Run(dst, a, n) }
		} else {
			m, k, n := x.Shape[0], x.Shape[1], op.W.Shape[1]
			if i == 0 {
				a, l.z, err = p.corr().TakeMatMulFixedB(op.FW.Mask, m, k, n)
			} else {
				l.z, err = p.corr().TakeMatMulFixedBShared(op.FW.Mask, m, k, n)
			}
			if err != nil {
				return nil, fmt.Errorf("mpc: matmul fixed-b pair: %w", err)
			}
			l.out, l.inner = Share{Shape: []int{m, n}}, 1
			w := op.FW.op
			l.apply = func(dst, a []uint64) { ringMatMul(dst, a, w, m, k, n) }
		}
		if err := l.place(op); err != nil {
			return nil, err
		}
	}
	if err := p.ownerCombine(x.V, a, legs); err != nil {
		return nil, fmt.Errorf("mpc: linear fixed-w: %w", err)
	}
	outs := make([]Share, len(legs))
	for i := range legs {
		outs[i] = legs[i].out
	}
	return outs, nil
}

// place gives the leg op's destination (or fresh words) and bias, whose
// shapes it checks against the leg's output shape.
func (l *ownerLeg) place(op FixedWOp) error {
	n, ch := 1, l.out.Shape[1]
	for _, d := range l.out.Shape {
		n *= d
	}
	if op.Bias != nil && len(op.Bias) != ch {
		return fmt.Errorf("mpc: linear fixed-w: %d bias words for %d output channels", len(op.Bias), ch)
	}
	l.bias = op.Bias
	if op.Out == nil {
		l.out.V = make([]uint64, n)
		return nil
	}
	if len(op.Out) != n {
		return fmt.Errorf("mpc: linear fixed-w: destination of %d words for output %v", len(op.Out), l.out.Shape)
	}
	l.out.V = op.Out
	return nil
}

// checkFixedWOp validates op's geometry against its input x.
func checkFixedWOp(x Share, op FixedWOp) error {
	if d := op.Conv; d != nil {
		if x.Len() != d.InLen() || op.W.Len() != d.KLen() {
			return fmt.Errorf("mpc: conv dims mismatch: x %d vs %d, w %d vs %d",
				x.Len(), d.InLen(), op.W.Len(), d.KLen())
		}
		return nil
	}
	if len(x.Shape) != 2 || len(op.W.Shape) != 2 || x.Shape[1] != op.W.Shape[0] {
		return fmt.Errorf("mpc: matmul shapes %v x %v", x.Shape, op.W.Shape)
	}
	return nil
}

// ownerCombine runs the owner-side protocol of fixed-weight ops on one
// input (see the file comment), each leg into its out: party 1 sends
// E' = X₁ − a once and computes a∘F + z₁ per leg; party 0 receives E',
// bounded to len(x) words, and computes (X₀ + E')∘W + z₀ per leg. Each
// leg's output is truncated, and biased on party 0, in the pass that adds
// its z. Party 1 sends before its kernel passes, so the two parties'
// passes overlap.
func (p *Party) ownerCombine(x, a []uint64, legs []ownerLeg) error {
	operand := a
	if p.ID == 1 {
		e := grow(&p.scr.mine, len(x))
		ringSub(e, x, a)
		if err := p.Conn.SendUint64s(e); err != nil {
			return err
		}
	} else {
		e, err := p.Conn.RecvUint64sMax(len(x))
		if err != nil {
			return err
		}
		if len(e) != len(x) {
			return fmt.Errorf("mpc: masked input length %d != %d", len(e), len(x))
		}
		ringAdd(e, e, x)
		operand = e
	}
	for _, l := range legs {
		l.apply(l.out.V, operand)
		p.truncAddTo(l.out.V, l.z, l.bias, l.inner)
	}
	return nil
}

// MatMulFixedW returns truncated fixed-point shares of x (m×k) @ w (k×n)
// where w is session-constant and fw caches its opened F = W−b. Only party
// 1's masked activation crosses the wire, one way, and each party runs one
// matrix multiply.
func (p *Party) MatMulFixedW(x, w Share, fw *FixedWeight) (Share, error) {
	outs, err := p.LinearFixedW(x, FixedWOp{W: w, FW: fw})
	if err != nil {
		return Share{}, err
	}
	return outs[0], nil
}

// Conv2DFixedW returns truncated fixed-point shares of conv(x, w) with the
// session-constant kernel w under its cached opened F = W−b (see
// MatMulFixedW).
func (p *Party) Conv2DFixedW(x, w Share, fw *FixedWeight, dims ConvDims) (Share, error) {
	outs, err := p.LinearFixedW(x, FixedWOp{W: w, FW: fw, Conv: &dims})
	if err != nil {
		return Share{}, err
	}
	return outs[0], nil
}
