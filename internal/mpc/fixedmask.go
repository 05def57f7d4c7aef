package mpc

import (
	"fmt"
	"slices"
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
// (session, layer), make F = W−b public once at setup, and per flush draw
// only a fresh activation mask a together with z = a∘b.
//
// Party 0 is the model vendor: it holds W in the clear, so at setup it
// sends party 1 every weight's F = W−b in one frame (FixWeights), and no
// weight is ever secret-shared. The activation mask need only be party
// 1's. So a linear op runs owner-side, one-way and one kernel pass per
// party:
//
//	party 1: send E' = X₁ − a;          R₁ = a∘F + z₁   (bound at load)
//	party 0: receive E';                R₀ = (X₀ + E')∘W + z₀
//
// R₀ + R₁ = (x − a)∘W + a∘F + a∘b = x∘W. Party 0 sees only X₁ under the
// uniform mask a; party 1 receives nothing; and R₁ = a∘W − z₀ is uniform
// through z₀, so local truncation behaves exactly as for a Beaver product.
// Party 0 may know b: it masks nothing but party 0's own W.
//
// Party 1's row reads nothing of the query: its output share
// Y₁ = trunc(a∘F + z₁) is a function of its correlation and the
// session-constant F alone, so it is offline work (Delphi's client-side
// linear share, here party 1's). A store bound to its session (a Binder,
// corr.Store.Bind) holds Y₁ in place of z₁, computed while the store
// loads, and online party 1 only sends E' and hands the store's Y₁ words
// over as its output share, copying nothing: no op writes its inputs, so a
// flush never writes a store's words. The live dealer and an unbound store
// hand out z₁, and party 1 runs the same owner pass (ownerLeg.pass) at
// take time. Party 0's row needs E', so it stays online.
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
//     was sent at setup;
//   - b is independent of batch geometry, so stores provisioned for
//     different flush shapes share one F.
//
// Like the rest of the Stream, deriving the plain b from the shared seed
// is the common-seed trusted-dealer *simulation* — it models offline-phase
// cost, not a secure offline protocol.

// fixedMaskTag domain-separates fixed-mask derivation from every other
// MixSeed use (store streams mix len(shape) first, a small integer).
const fixedMaskTag = 0x6d61736b2d666978 // "masq-fix"

// MaxFixedMask bounds mask slot ids accepted by dealers and stores.
const MaxFixedMask = 1 << 20

// FixedMaskPlain returns the plain fixed mask b for slot mask of length n
// under the given dealer seed.
func FixedMaskPlain(seed uint64, mask, n int) []uint64 {
	plain := make([]uint64, n)
	rng.New(rng.MixSeed(seed, fixedMaskTag, uint64(mask), uint64(n))).FillUint64(plain)
	return plain
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

// FixedWeight is one session-constant weight tensor fixed under its mask:
// the public F = W−b party 0 sent at setup, with the party's operand of
// the owner-side combine. It records its own shape and holds its operand
// privately, so a product never reads a caller's copy of the weight, and
// it is pinned to the dealer stream whose seed minted b: the FixedW ops
// re-validate that, so a mask can never silently outlive its stream
// (reviving a pair at a new generation must fix the weight anew).
//
// For a convolution the operand is packed once, at the op's first flush,
// into a kernel.ConvPlan that every later flush runs; a re-fixed weight
// is a new FixedWeight and packs anew. A FixedWeight must not be copied.
type FixedWeight struct {
	// Mask is the mask slot id (the layer's weight index).
	Mask int
	// shape is the weight tensor's shape.
	shape []int
	// f is the public W−b.
	f []uint64
	// op is what this party multiplies by: W = F + b on party 0, F on
	// party 1.
	op []uint64
	// seed pins the dealer stream that minted b.
	seed uint64
	// plan is op packed for the conv geometry it last ran at.
	plan atomic.Pointer[kernel.ConvPlan[uint64]]
}

// F returns a copy of the public W−b.
func (fw *FixedWeight) F() []uint64 { return slices.Clone(fw.f) }

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

// FixWeights fixes every weight of a session under its mask slot in one
// frame from the owner. Party 0 passes each weight's encoded values ws[i]
// of shape shapes[i] and sends every F = W − b, b its dealer's pinned mask
// of the slot; party 1 passes nil ws and receives that frame, bounded to
// the words the shapes hold. Each FixedWeight is built the same way on
// both parties: party 0's operand is F + b, which is the encoded W, and
// party 1's is F. They come back in argument order; with no weights
// nothing is sent.
func (p *Party) FixWeights(masks []int, shapes [][]int, ws [][]uint64) ([]*FixedWeight, error) {
	if len(masks) != len(shapes) || (p.ID == 0 && len(ws) != len(shapes)) {
		return nil, fmt.Errorf("mpc: fix weights: %d mask slots, %d shapes and %d weights", len(masks), len(shapes), len(ws))
	}
	if len(shapes) == 0 {
		return nil, nil
	}
	lens := make([]int, len(shapes))
	total := 0
	for i, shape := range shapes {
		lens[i] = 1
		for _, d := range shape {
			lens[i] *= d
		}
		if p.ID == 0 && len(ws[i]) != lens[i] {
			return nil, fmt.Errorf("mpc: fix weight %d: %d words for shape %v", i, len(ws[i]), shape)
		}
		total += lens[i]
	}
	frame := make([]uint64, total)
	if p.ID == 1 {
		var err error
		if frame, err = p.Conn.RecvUint64sMax(total); err != nil {
			return nil, fmt.Errorf("mpc: fix weights: %w", err)
		}
		if len(frame) != total {
			return nil, fmt.Errorf("mpc: fixed weights frame of %d words, want %d", len(frame), total)
		}
	}
	fws := make([]*FixedWeight, len(shapes))
	off := 0
	for i, n := range lens {
		b, err := p.Dealer.s.fixedMask(masks[i], n)
		if err != nil {
			return nil, fmt.Errorf("mpc: fix weight: %w", err)
		}
		f := frame[off : off+n : off+n]
		op := f
		if p.ID == 0 {
			ringSub(f, ws[i], b)
			op = make([]uint64, n)
			ringAdd(op, f, b)
		}
		fws[i] = &FixedWeight{Mask: masks[i], shape: slices.Clone(shapes[i]), f: f, op: op, seed: p.Dealer.Seed()}
		off += n
	}
	if p.ID == 0 {
		if err := p.Conn.SendUint64s(frame); err != nil {
			return nil, fmt.Errorf("mpc: fix weights: %w", err)
		}
	}
	return fws, nil
}

// OpenFixedW fixes one secret-shared weight w under slot mask: party 1
// sends its share to party 0, which then holds W and fixes it as
// FixWeights does. Revealing W to party 0 leaks nothing new: party 0
// holds W = F + b once the weight is fixed.
func (p *Party) OpenFixedW(mask int, w Share) (*FixedWeight, error) {
	var ws [][]uint64
	if p.ID == 1 {
		if err := p.Conn.SendUint64s(w.V); err != nil {
			return nil, fmt.Errorf("mpc: open fixed weight: %w", err)
		}
	} else {
		theirs, err := p.Conn.RecvUint64sMax(w.Len())
		if err != nil {
			return nil, fmt.Errorf("mpc: open fixed weight: %w", err)
		}
		// A short share fails FixWeights' length check.
		ringAdd(theirs, theirs, w.V)
		ws = [][]uint64{theirs}
	}
	fws, err := p.FixWeights([]int{mask}, [][]int{w.Shape}, ws)
	if err != nil {
		return nil, err
	}
	return fws[0], nil
}

// checkFixedW validates that fw was fixed under this party's dealer
// stream.
func (p *Party) checkFixedW(fw *FixedWeight) error {
	if fw == nil {
		return fmt.Errorf("mpc: nil fixed weight")
	}
	if fw.seed != p.Dealer.Seed() {
		return fmt.Errorf("mpc: fixed weight for mask %d was opened under dealer seed %#x, session runs %#x — a revived generation must re-open W−b, not inherit the old F", fw.Mask, fw.seed, p.Dealer.Seed())
	}
	return nil
}

// FixedWOp is one linear op of LinearFixedW: a fixed weight and the op's
// geometry — Conv for a convolution, nil for a matrix product of the
// input's rows by W (k×n).
//
// Out, when non-nil, is the op's destination: exactly its output's words,
// which the returned share then holds; nil allocates them. Party 1 from a
// bound source writes no destination: its output share is its store's Y₁
// words, which the returned share holds instead and which the caller must
// not write (see the file comment). Bias, when non-nil, is the op's public
// bias encoded per output channel (a convolution's OutC, a product's n
// columns), which party 0 adds in the same pass that truncates —
// AddBias/AddBiasVec fused into the op.
type FixedWOp struct {
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

// pass is the owner pass of one leg: out = trunc(operand∘op + z), and on
// party 0 plus its bias, as one kernel pass and one fused epilogue (the
// ring add of z, TruncateInPlace and AddBias/AddBiasVec, word for word).
// It is the one place either party's output share of a fixed-weight op is
// computed: party 0's per flush, party 1's per flush from an unbound
// source, and party 1's once per correlation when a Binder binds a store.
func (l *ownerLeg) pass(operand []uint64, f uint, party int) {
	l.apply(l.out.V, operand)
	bias := l.bias
	if party == 1 {
		bias = nil
	}
	kernel.TruncAdd(l.out.V, l.z, bias, l.inner, f, party)
}

// product returns fw's leg for one op, without its z, destination or
// bias: the product with the party's operand, the output shape and the
// words per output channel of a convolution at geometry d or, d nil, of
// an m-row matrix product by the k×n weight.
func (fw *FixedWeight) product(d *ConvDims, m int) ownerLeg {
	if d != nil {
		plan, n := fw.convPlan(*d), d.N
		oh, ow := d.OutHW()
		return ownerLeg{
			apply: func(dst, a []uint64) { plan.Run(dst, a, n) },
			out:   Share{Shape: []int{d.N, d.OutC, oh, ow}},
			inner: oh * ow,
		}
	}
	w, k, n := fw.op, fw.shape[0], fw.shape[1]
	return ownerLeg{
		apply: func(dst, a []uint64) { ringMatMul(dst, a, w, m, k, n) },
		out:   Share{Shape: []int{m, n}},
		inner: 1,
	}
}

// LinearFixedW returns truncated fixed-point shares of every op of ops
// applied to the one input x, in order, masking x once: the first op takes
// a FixedB pair (a, z₀), every later op a shared-mask z for that same a,
// party 1 sends E' = X₁ − a once, and each party runs one kernel pass per
// op (see the file comment), then one pass that adds z, truncates and adds
// the op's bias. From a bound source party 1's takes hand it each op's
// output share Y₁, which it returns as is, running no pass. With one op
// and neither Out nor Bias it is MatMulFixedW or Conv2DFixedW.
func (p *Party) LinearFixedW(x Share, ops ...FixedWOp) ([]Share, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("mpc: linear fixed-w: no ops")
	}
	binder := p.binder()
	for _, op := range ops {
		if err := p.checkFixedW(op.FW); err != nil {
			return nil, err
		}
		if err := checkFixedWOp(x, op); err != nil {
			return nil, err
		}
		if err := binder.check(op.FW); err != nil {
			return nil, err
		}
	}
	var a []uint64
	if cap(p.scr.legs) < len(ops) {
		p.scr.legs = make([]ownerLeg, len(ops))
	}
	legs := p.scr.legs[:len(ops)]
	defer clear(legs)
	for i, op := range ops {
		l := &legs[i]
		var z []uint64
		var err error
		if d := op.Conv; d != nil {
			if i == 0 {
				a, z, err = p.corr().TakeConvFixedB(op.FW.Mask, *d)
			} else {
				z, err = p.corr().TakeConvFixedBShared(op.FW.Mask, *d)
			}
			if err != nil {
				return nil, fmt.Errorf("mpc: conv fixed-b pair: %w", err)
			}
		} else {
			m, k, n := x.Shape[0], x.Shape[1], op.FW.shape[1]
			if i == 0 {
				a, z, err = p.corr().TakeMatMulFixedB(op.FW.Mask, m, k, n)
			} else {
				z, err = p.corr().TakeMatMulFixedBShared(op.FW.Mask, m, k, n)
			}
			if err != nil {
				return nil, fmt.Errorf("mpc: matmul fixed-b pair: %w", err)
			}
		}
		*l = op.FW.product(op.Conv, x.Shape[0])
		l.z = z
		if err := l.place(op, binder != nil); err != nil {
			return nil, err
		}
	}
	if err := p.ownerCombine(x.V, a, legs, binder != nil); err != nil {
		return nil, fmt.Errorf("mpc: linear fixed-w: %w", err)
	}
	outs := make([]Share, len(legs))
	for i := range legs {
		outs[i] = legs[i].out
	}
	return outs, nil
}

// place gives the leg its output words and op's bias, whose shapes it
// checks against the leg's output shape: op's destination (or fresh
// words), or, bound, the z it took, which is party 1's output share Y₁
// already.
func (l *ownerLeg) place(op FixedWOp, bound bool) error {
	n, ch := 1, l.out.Shape[1]
	for _, d := range l.out.Shape {
		n *= d
	}
	if op.Bias != nil && len(op.Bias) != ch {
		return fmt.Errorf("mpc: linear fixed-w: %d bias words for %d output channels", len(op.Bias), ch)
	}
	l.bias = op.Bias
	switch {
	case op.Out != nil && len(op.Out) != n:
		return fmt.Errorf("mpc: linear fixed-w: destination of %d words for output %v", len(op.Out), l.out.Shape)
	case bound:
		l.out.V = l.z
	case op.Out == nil:
		l.out.V = make([]uint64, n)
	default:
		l.out.V = op.Out
	}
	return nil
}

// checkFixedWOp validates op's geometry against its input x and its fixed
// weight's shape.
func checkFixedWOp(x Share, op FixedWOp) error {
	w := op.FW
	if d := op.Conv; d != nil {
		if x.Len() != d.InLen() || len(w.op) != d.KLen() {
			return fmt.Errorf("mpc: conv dims mismatch: x %d vs %d, w %d vs %d",
				x.Len(), d.InLen(), len(w.op), d.KLen())
		}
		return nil
	}
	if len(x.Shape) != 2 || len(w.shape) != 2 || x.Shape[1] != w.shape[0] {
		return fmt.Errorf("mpc: matmul shapes %v x %v", x.Shape, w.shape)
	}
	return nil
}

// checkWeight validates w, a caller's copy of the weight fw fixed, against
// fw's shape. The product reads fw alone.
func (p *Party) checkWeight(w Share, fw *FixedWeight) error {
	if err := p.checkFixedW(fw); err != nil {
		return err
	}
	if len(fw.op) != w.Len() || !slices.Equal(fw.shape, w.Shape) {
		return fmt.Errorf("mpc: fixed weight mask %d length %d (shape %v) != weight length %d (shape %v)", fw.Mask, len(fw.op), fw.shape, w.Len(), w.Shape)
	}
	return nil
}

// ownerCombine runs the owner-side protocol of fixed-weight ops on one
// input (see the file comment), each leg into its out: party 1 sends
// E' = X₁ − a once and runs each leg's owner pass, a∘F + z₁ truncated —
// or, bound, runs none: each leg's output is the Y₁ its z already is
// (ownerLeg.place); party 0 receives E', bounded to len(x) words, and runs
// (X₀ + E')∘W + z₀ truncated and biased per leg. Party 1 sends before its passes, so the two parties'
// passes overlap.
func (p *Party) ownerCombine(x, a []uint64, legs []ownerLeg, bound bool) error {
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
	if bound {
		return nil
	}
	for i := range legs {
		legs[i].pass(operand, p.Codec.FracBits, p.ID)
	}
	if p.ID == 0 {
		transport.Release(operand) // E' + X₀, in the received frame's words
	}
	return nil
}

// MatMulFixedW returns truncated fixed-point shares of x (m×k) @ w (k×n)
// where w is session-constant and fw is w fixed; w is read only to check
// its shape. Only party 1's masked activation crosses the wire, one way,
// and each party runs one matrix multiply.
func (p *Party) MatMulFixedW(x, w Share, fw *FixedWeight) (Share, error) {
	if err := p.checkWeight(w, fw); err != nil {
		return Share{}, err
	}
	outs, err := p.LinearFixedW(x, FixedWOp{FW: fw})
	if err != nil {
		return Share{}, err
	}
	return outs[0], nil
}

// Conv2DFixedW returns truncated fixed-point shares of conv(x, w) with the
// session-constant kernel w fixed as fw (see MatMulFixedW).
func (p *Party) Conv2DFixedW(x, w Share, fw *FixedWeight, dims ConvDims) (Share, error) {
	if err := p.checkWeight(w, fw); err != nil {
		return Share{}, err
	}
	outs, err := p.LinearFixedW(x, FixedWOp{FW: fw, Conv: &dims})
	if err != nil {
		return Share{}, err
	}
	return outs[0], nil
}

// Binder binds party 1's FixedB correlations to one session's fixed
// weights: it turns an entry's z₁ into the output share Y₁ = trunc(a∘F + z₁)
// of the op that will take it (see the file comment), so that work leaves
// the online path. A store calls it as it loads (corr.ReadBoundFile) or
// once loaded (corr.Store.Bind). A bound source is pinned to the weights
// it was bound with: LinearFixedW fails party 1 on any other weight, such
// as a revived generation's or another model's. A Binder is read-only
// once made, so any number of goroutines may use it at once.
type Binder struct {
	fws  map[int]*FixedWeight // by mask slot
	seed uint64
	f    uint
}

// NewBinder returns party 1's binder for a session's fixed weights, each
// of which must have been fixed under this party's dealer stream and
// under a slot of its own. Party 0 has nothing to bind: its output share
// needs E'.
func (p *Party) NewBinder(fws []*FixedWeight) (*Binder, error) {
	if p.ID != 1 {
		return nil, fmt.Errorf("mpc: binder: party %d has no offline share to bind; only party 1's output share is query-independent", p.ID)
	}
	b := &Binder{fws: make(map[int]*FixedWeight, len(fws)), seed: p.Dealer.Seed(), f: p.Codec.FracBits}
	for _, fw := range fws {
		if err := p.checkFixedW(fw); err != nil {
			return nil, fmt.Errorf("mpc: binder: %w", err)
		}
		if _, dup := b.fws[fw.Mask]; dup {
			return nil, fmt.Errorf("mpc: binder: two fixed weights under mask slot %d", fw.Mask)
		}
		b.fws[fw.Mask] = fw
	}
	return b, nil
}

// Seed returns the dealer seed the binder's weights were fixed under.
func (b *Binder) Seed() uint64 { return b.seed }

// Conv returns party 1's owner pass of the convolution of slot mask at
// geometry d: pass(dst, a, z) writes trunc(a∘F + z) into dst, which must
// not overlap a or z. It fails on a slot the session has no weight for or
// a geometry the slot's weight does not fit: a store of another program.
func (b *Binder) Conv(mask int, d ConvDims) (func(dst, a, z []uint64), error) {
	fw, err := b.weight(mask)
	if err != nil {
		return nil, err
	}
	if len(fw.op) != d.KLen() {
		return nil, fmt.Errorf("mpc: binder: conv of mask %d needs a %d-word kernel, the session's weight holds %d", mask, d.KLen(), len(fw.op))
	}
	return b.pass(fw, &d, 0), nil
}

// MatMul is Conv for the product of an m×k input by slot mask's k×n
// weight.
func (b *Binder) MatMul(mask, m, k, n int) (func(dst, a, z []uint64), error) {
	fw, err := b.weight(mask)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(fw.shape, []int{k, n}) {
		return nil, fmt.Errorf("mpc: binder: matmul of mask %d needs a %d×%d weight, the session's is %v", mask, k, n, fw.shape)
	}
	return b.pass(fw, nil, m), nil
}

// weight returns the session's weight of slot mask.
func (b *Binder) weight(mask int) (*FixedWeight, error) {
	fw, ok := b.fws[mask]
	if !ok {
		return nil, fmt.Errorf("mpc: binder: the session has no fixed weight under mask slot %d (a store of another model?)", mask)
	}
	return fw, nil
}

// pass is the owner pass of fw's op (see FixedWeight.product) as party 1
// runs it.
func (b *Binder) pass(fw *FixedWeight, d *ConvDims, m int) func(dst, a, z []uint64) {
	leg := fw.product(d, m)
	return func(dst, a, z []uint64) {
		l := leg
		l.z, l.out.V = z, dst
		l.pass(a, b.f, 1)
	}
}

// check fails unless fw is the weight b bound its slot with; a nil b (an
// unbound source) passes everything.
func (b *Binder) check(fw *FixedWeight) error {
	if b == nil || b.fws[fw.Mask] == fw {
		return nil
	}
	return fmt.Errorf("mpc: the correlation store was bound to the fixed weights of a session under dealer seed %#x, but the weight of mask %d was fixed by another (dealer seed %#x): a bound store holds that session's output shares and serves no other — a revived generation or another model needs its own store", b.seed, fw.Mask, fw.seed)
}

// boundSource is a correlation source that may be bound (corr.Store):
// Binder returns what it was bound with, nil while unbound.
type boundSource interface {
	Binder() *Binder
}

// binder returns what party 1's source was bound with: nil on party 0,
// for the live dealer and for an unbound store.
func (p *Party) binder() *Binder {
	if p.ID != 1 {
		return nil
	}
	if bs, ok := p.corr().(boundSource); ok {
		return bs.Binder()
	}
	return nil
}
