// Package corr implements the preprocessing (offline-phase) subsystem of
// the 2PC deployment split: demand tapes that record the exact sequence of
// dealer correlations a compiled program consumes, a preprocessed
// correlation store that generates that tape ahead of time and replays it
// during the measured online phase, and a checksummed, seed-compressed
// on-disk format so stores can be produced by a `pasnet-server -party
// preprocess` run and loaded at serve time.
//
// The store generator owns no generation logic of its own: it deals each
// demand off an mpc.Stream, the same generator the live mpc.Dealer deals
// from, in one cheap sequential pass, and runs party 1's z-half products
// (ring convolutions and matrix multiplies) on workers sized from the
// kernel worker pool as that pass hands them over; the decoder regenerates
// a file's halves through the same Stream's per-kind draws. A store built
// from seed S therefore hands out byte-identical correlations to a live
// mpc.NewDealer(S, party) consuming the same demand sequence by
// construction — which is what makes the store-fed online phase
// bit-identical to the live-dealer path, the invariant the cross-source
// equivalence suite pins.
package corr

import (
	"fmt"

	"pasnet/internal/mpc"
)

// Kind identifies one dealer correlation family.
type Kind uint8

const (
	// KindHadamard is an owner-split selector triple for n selects:
	// a = [c1 ; r1] is party 1's alone, b = [c0 ; r0] party 0's alone (n
	// packed bits c, then n ring words r), and z = [c1 ⊙ r0 ; c0 ⊙ r1] is
	// additively shared (see mpc.Stream.Hadamard).
	KindHadamard Kind = iota + 1
	// KindSquare is a Beaver square pair (z = a ⊙ a).
	KindSquare
	// KindMatMul is a matrix Beaver triple (Z = A @ B).
	KindMatMul
	// KindConv is a convolution Beaver triple (Z = conv(A, B)).
	KindConv
	// KindBits is a batch of owner-split GMW AND triples (c = a ∧ b, c
	// XOR-shared), a party 1's alone and b party 0's alone.
	KindBits
	// KindMatMulFixedB is a matmul pair (a, z = a@b) against a
	// session-pinned fixed weight mask b (see mpc fixedmask.go). Only the
	// activation mask a is fresh per demand; b is derived out-of-band from
	// the dealer seed and the Demand's Mask slot.
	KindMatMulFixedB
	// KindConvFixedB is the convolution analogue of KindMatMulFixedB.
	KindConvFixedB
)

// String names the kind for demand diagnostics.
func (k Kind) String() string {
	switch k {
	case KindHadamard:
		return "hadamard"
	case KindSquare:
		return "square"
	case KindMatMul:
		return "matmul"
	case KindConv:
		return "conv"
	case KindBits:
		return "bits"
	case KindMatMulFixedB:
		return "matmul-fixedb"
	case KindConvFixedB:
		return "conv-fixedb"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Demand records one correlation request with its full geometry. It is
// comparable, so tape equality and store validation are plain ==.
type Demand struct {
	// Kind is the correlation family.
	Kind Kind
	// N is the element count for hadamard, square and bit demands.
	N int
	// M, K, P are the matmul dimensions (M×K @ K×P) for KindMatMul.
	M, K, P int
	// Conv is the convolution geometry for KindConv.
	Conv mpc.ConvDims
	// Mask is the fixed-mask slot id for the FixedB kinds (zero otherwise).
	Mask int
	// Shared marks a FixedB demand that deals no activation mask of its
	// own: it reuses the a of the FixedB demand right before it, whose
	// input must be as long as its own — the second linear op on one
	// activation (mpc.CorrelationSource.TakeConvFixedBShared).
	Shared bool
}

// inLen is the word count of a FixedB demand's activation mask.
func (d Demand) inLen() int {
	if d.Kind == KindConvFixedB {
		return d.Conv.InLen()
	}
	return d.M * d.K
}

// String renders the demand with its geometry, the vocabulary of store
// mismatch errors.
func (d Demand) String() string {
	switch d.Kind {
	case KindMatMul:
		return fmt.Sprintf("matmul(%dx%d @ %dx%d)", d.M, d.K, d.K, d.P)
	case KindMatMulFixedB:
		return fmt.Sprintf("matmul-fixedb(mask=%d%s, %dx%d @ %dx%d)", d.Mask, d.sharedTag(), d.M, d.K, d.K, d.P)
	case KindConv:
		c := d.Conv
		return fmt.Sprintf("conv(N=%d C=%d %dx%d, k=%dx%dx%d s=%d p=%d g=%d)",
			c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups)
	case KindConvFixedB:
		c := d.Conv
		return fmt.Sprintf("conv-fixedb(mask=%d%s, N=%d C=%d %dx%d, k=%dx%dx%d s=%d p=%d g=%d)",
			d.Mask, d.sharedTag(), c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups)
	default:
		return fmt.Sprintf("%s(n=%d)", d.Kind, d.N)
	}
}

// sharedTag marks a shared-mask demand in String.
func (d Demand) sharedTag() string {
	if d.Shared {
		return ", shared"
	}
	return ""
}

// Tape is the ordered correlation demand sequence of one program
// evaluation. It is a pure function of the compiled program and the input
// geometry — never of input values, kernel worker count, or kernel
// lowering path — which is what makes preprocessing per batch geometry
// sound.
type Tape []Demand

// Equal reports whether two tapes record the identical demand sequence.
func (t Tape) Equal(o Tape) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Repeat concatenates n copies of the tape: the demand sequence of n
// identical flushes, used when preprocessing a store that must survive a
// whole serving session.
func (t Tape) Repeat(n int) Tape {
	out := make(Tape, 0, len(t)*n)
	for i := 0; i < n; i++ {
		out = append(out, t...)
	}
	return out
}

// Recorder wraps a CorrelationSource and records every demand flowing
// through it, building the tape the preprocessor later generates against.
// It forwards to the wrapped source, so a traced run still computes real
// results.
type Recorder struct {
	src  mpc.CorrelationSource
	tape Tape
}

// NewRecorder wraps src.
func NewRecorder(src mpc.CorrelationSource) *Recorder { return &Recorder{src: src} }

// Tape returns the demand sequence recorded so far.
func (r *Recorder) Tape() Tape { return r.tape }

// TakeHadamard implements mpc.CorrelationSource.
func (r *Recorder) TakeHadamard(n int) (a, b, z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindHadamard, N: n})
	return r.src.TakeHadamard(n)
}

// TakeSquare implements mpc.CorrelationSource.
func (r *Recorder) TakeSquare(n int) (a, z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindSquare, N: n})
	return r.src.TakeSquare(n)
}

// TakeMatMul implements mpc.CorrelationSource.
func (r *Recorder) TakeMatMul(m, k, p int) (a, b, z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindMatMul, M: m, K: k, P: p})
	return r.src.TakeMatMul(m, k, p)
}

// TakeConv implements mpc.CorrelationSource.
func (r *Recorder) TakeConv(dims mpc.ConvDims) (a, b, z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindConv, Conv: dims})
	return r.src.TakeConv(dims)
}

// TakeMatMulFixedB implements mpc.CorrelationSource.
func (r *Recorder) TakeMatMulFixedB(mask, m, k, p int) (a, z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindMatMulFixedB, Mask: mask, M: m, K: k, P: p})
	return r.src.TakeMatMulFixedB(mask, m, k, p)
}

// TakeConvFixedB implements mpc.CorrelationSource.
func (r *Recorder) TakeConvFixedB(mask int, dims mpc.ConvDims) (a, z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindConvFixedB, Mask: mask, Conv: dims})
	return r.src.TakeConvFixedB(mask, dims)
}

// TakeMatMulFixedBShared implements mpc.CorrelationSource.
func (r *Recorder) TakeMatMulFixedBShared(mask, m, k, p int) (z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindMatMulFixedB, Mask: mask, M: m, K: k, P: p, Shared: true})
	return r.src.TakeMatMulFixedBShared(mask, m, k, p)
}

// TakeConvFixedBShared implements mpc.CorrelationSource.
func (r *Recorder) TakeConvFixedBShared(mask int, dims mpc.ConvDims) (z []uint64, err error) {
	r.tape = append(r.tape, Demand{Kind: KindConvFixedB, Mask: mask, Conv: dims, Shared: true})
	return r.src.TakeConvFixedBShared(mask, dims)
}

// TakeBits implements mpc.CorrelationSource.
func (r *Recorder) TakeBits(n int) (ta, tb, tc mpc.BitShare, err error) {
	r.tape = append(r.tape, Demand{Kind: KindBits, N: n})
	return r.src.TakeBits(n)
}
