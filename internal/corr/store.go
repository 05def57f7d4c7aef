package corr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// maxEntryWords caps a single demand's element count. It bounds both the
// generator and — more importantly — the decoder, so a corrupt or hostile
// store file can never request a pathological allocation.
const maxEntryWords = 1 << 28

// entry is one preprocessed correlation: this party's halves. For ring
// kinds a, b, z are additive halves (b is nil for square pairs and FixedB
// kinds); for KindBits they are the packed XOR halves of (a, b, c = a∧b).
type entry struct {
	a, b, z []uint64
}

// Store is a preprocessed correlation tape: one party's halves of every
// correlation a program evaluation will consume, in demand order. The
// online phase consumes it through the mpc.CorrelationSource interface;
// every Take validates kind and geometry against the recorded demand and
// returns a descriptive error on mismatch or exhaustion, before any
// protocol bytes move — so both parties fail symmetrically instead of
// desyncing.
//
// A Store is not safe for concurrent use, mirroring the Dealer it
// replaces.
type Store struct {
	party   int
	label   uint32
	tape    Tape
	entries []entry
	cursor  int
}

// Party returns which party's halves the store holds.
func (s *Store) Party() int { return s.party }

// Label is the preprocess-run stamp: both parties' stores from one
// preprocess run carry the same label, so a deployment can cheaply detect
// stores provisioned from different runs (different seeds yield
// inconsistent correlation halves and silently wrong results otherwise).
// It is preserved by serialization.
func (s *Store) Label() uint32 { return s.label }

// SetLabel stamps the store (see Label).
func (s *Store) SetLabel(l uint32) { s.label = l }

// Len returns the total number of preprocessed correlations.
func (s *Store) Len() int { return len(s.entries) }

// Remaining returns how many correlations are still unconsumed.
func (s *Store) Remaining() int { return len(s.entries) - s.cursor }

// Tape returns the demand tape the store was generated for.
func (s *Store) Tape() Tape { return s.tape }

// lens returns the flat word counts (a, b, z) of the demand's correlation
// material. b is 0 for square pairs; bit triples pack 64 to a word.
func (d Demand) lens() (la, lb, lz int) {
	switch d.Kind {
	case KindBits:
		nw := mpc.BitWords(d.N)
		return nw, nw, nw
	case KindHadamard:
		return d.N, d.N, d.N
	case KindSquare:
		return d.N, 0, d.N
	case KindMatMul:
		return d.M * d.K, d.K * d.P, d.M * d.P
	case KindMatMulFixedB:
		return d.M * d.K, 0, d.M * d.P
	case KindConv:
		return d.Conv.InLen(), d.Conv.KLen(), d.Conv.OutLen()
	case KindConvFixedB:
		return d.Conv.InLen(), 0, d.Conv.OutLen()
	default:
		return 0, 0, 0
	}
}

// fixedMaskLen returns the plain fixed-mask length of a FixedB demand
// (the weight-side element count b never stored in the entry).
func (d Demand) fixedMaskLen() int {
	switch d.Kind {
	case KindMatMulFixedB:
		return d.K * d.P
	case KindConvFixedB:
		return d.Conv.KLen()
	default:
		return 0
	}
}

// validate rejects malformed demands before any allocation happens, on
// both the generation and the decode path.
func (d Demand) validate() error {
	switch d.Kind {
	case KindHadamard, KindSquare, KindBits:
		// A zero-length demand never occurs in practice (every share in
		// the engine has positive size), and requiring real payload per
		// entry lets the decoder bound its entry-table allocation by the
		// file's actual size.
		if d.N < 1 || d.N > maxEntryWords {
			return fmt.Errorf("element count %d out of range", d.N)
		}
	case KindMatMul, KindMatMulFixedB:
		if d.M < 1 || d.K < 1 || d.P < 1 ||
			d.M > maxEntryWords/d.K || d.K > maxEntryWords/d.P || d.M > maxEntryWords/d.P {
			return fmt.Errorf("matmul dims %dx%dx%d out of range", d.M, d.K, d.P)
		}
	case KindConv, KindConvFixedB:
		c := d.Conv
		if c.N < 1 || c.InC < 1 || c.H < 1 || c.W < 1 || c.OutC < 1 ||
			c.KH < 1 || c.KW < 1 || c.Stride < 1 || c.Pad < 0 || c.Groups < 0 {
			return fmt.Errorf("conv geometry %s malformed", d)
		}
		// Every field is individually capped before any product is formed:
		// lens() multiplies four of them, and a hostile file with fields
		// near 2^31 would otherwise overflow the products right past the
		// `> maxEntryWords` checks (negative lengths panic makeslice).
		for _, v := range []int{c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups} {
			if v > maxEntryWords {
				return fmt.Errorf("conv geometry %s: dimension %d exceeds cap", d, v)
			}
		}
		g := kernel.NormGroups(c.Groups)
		if c.InC%g != 0 || c.OutC%g != 0 {
			return fmt.Errorf("conv geometry %s: groups %d do not divide channels", d, g)
		}
		oh, ow := c.OutHW()
		if oh < 1 || ow < 1 {
			return fmt.Errorf("conv geometry %s yields empty output", d)
		}
		if !mulFits(c.N, c.InC, c.H, c.W) ||
			!mulFits(c.OutC, c.InC/g, c.KH, c.KW) ||
			!mulFits(c.N, c.OutC, oh, ow) {
			return fmt.Errorf("conv geometry %s exceeds size cap", d)
		}
	default:
		return fmt.Errorf("unknown correlation kind %d", uint8(d.Kind))
	}
	return d.validateMask()
}

// validateMask bounds the fixed-mask slot of FixedB demands and insists
// the non-fixed kinds carry none (a nonzero Mask on a plain triple means
// a miswritten or corrupted tape).
func (d Demand) validateMask() error {
	switch d.Kind {
	case KindMatMulFixedB, KindConvFixedB:
		if d.Mask < 0 || d.Mask > mpc.MaxFixedMask {
			return fmt.Errorf("fixed mask slot %d out of range [0, %d]", d.Mask, mpc.MaxFixedMask)
		}
	default:
		if d.Mask != 0 {
			return fmt.Errorf("%s demand carries fixed mask slot %d", d.Kind, d.Mask)
		}
	}
	return nil
}

// mulFits reports whether the product of the (non-negative) factors stays
// within maxEntryWords, checking overflow at every step.
func mulFits(vs ...int) bool {
	p := 1
	for _, v := range vs {
		if v == 0 {
			return true
		}
		if p > maxEntryWords/v {
			return false
		}
		p *= v
	}
	return true
}

// deferredZ is one heavy triple product postponed to the parallel pass:
// everything needed to compute party 1's z half off the sequential
// randomness stream.
type deferredZ struct {
	idx            int
	plainA, plainB []uint64 // plainB aliases plainA for square pairs
	maskZ          []uint64
}

// Build generates one party's store for the tape, drawing randomness from
// r in exactly the order a live mpc.Dealer consuming the same demand
// sequence would — so the stream advances identically for either party,
// and the resulting correlations are byte-identical to the live dealer's.
// The heavy triple products (ring convolutions, matrix multiplies) run in
// a parallel second pass sized from the kernel worker pool; only party 1's
// halves need them, so party 0's build is almost pure RNG.
//
// maskSeed is the *pair's* dealer seed, which may differ from r's stream:
// fixed weight masks (the FixedB kinds) are derived out-of-band from the
// dealer seed, not from the main stream, so a store provisioned off a
// per-geometry stream still replays z = a@b against the same b the
// session's live dealer minted and opened F = W−b with at setup. Tapes
// without FixedB demands never touch maskSeed.
func Build(tape Tape, party int, r *rng.RNG, maskSeed uint64) (*Store, error) {
	if party != 0 && party != 1 {
		return nil, fmt.Errorf("corr: party must be 0 or 1, got %d", party)
	}
	s0, s1, err := build(tape, r, maskSeed, party == 0, party == 1)
	if err != nil {
		return nil, err
	}
	if party == 0 {
		return s0, nil
	}
	return s1, nil
}

// BuildSeeded is Build starting a fresh dealer stream from seed, matching
// mpc.NewDealer(seed, party). The stream seed doubles as the mask seed,
// exactly as it does for a live dealer.
func BuildSeeded(tape Tape, party int, seed uint64) (*Store, error) {
	return Build(tape, party, rng.New(seed), seed)
}

// BuildPair generates both parties' stores in one pass over a shared
// dealer stream (the in-process deployment shape, where one preprocessor
// provisions both endpoints). maskSeed is the pair's dealer seed (see
// Build).
func BuildPair(tape Tape, r *rng.RNG, maskSeed uint64) (p0, p1 *Store, err error) {
	return build(tape, r, maskSeed, true, true)
}

// build is the shared generator. The sequential pass replays the dealer's
// draw order per demand — plain values first, then the additive masks —
// and materializes every half that is cheap (party 0's halves are masks;
// party 1's a/b halves are one subtraction). Party 1's z halves need the
// actual triple product, which is deferred and computed in parallel.
func build(tape Tape, r *rng.RNG, maskSeed uint64, want0, want1 bool) (*Store, *Store, error) {
	var s0, s1 *Store
	if want0 {
		s0 = &Store{party: 0, tape: append(Tape(nil), tape...), entries: make([]entry, len(tape))}
	}
	if want1 {
		s1 = &Store{party: 1, tape: append(Tape(nil), tape...), entries: make([]entry, len(tape))}
	}
	// fixedPlains caches the derived plain b per mask slot, pinned to the
	// length it was first derived at (mirroring the Dealer's slot cache).
	var fixedPlains map[int][]uint64
	var defs []deferredZ
	for i, d := range tape {
		if err := d.validate(); err != nil {
			return nil, nil, fmt.Errorf("corr: tape entry %d: %w", i, err)
		}
		la, lb, lz := d.lens()
		switch d.Kind {
		case KindBits:
			// Dealer order: plain a, plain b, then the three XOR masks, each
			// one mpc.DrawBits. c = a AND b is cheap enough to fold in here.
			plainA := mpc.DrawBits(r, d.N).W
			plainB := mpc.DrawBits(r, d.N).W
			maskA := mpc.DrawBits(r, d.N).W
			maskB := mpc.DrawBits(r, d.N).W
			maskC := mpc.DrawBits(r, d.N).W
			if want0 {
				e := &s0.entries[i]
				e.a, e.b, e.z = maskA, maskB, maskC
			}
			if want1 {
				e := &s1.entries[i]
				e.a = xorWords(plainA, maskA)
				e.b = xorWords(plainB, maskB)
				e.z = make([]uint64, lz)
				for j := range e.z {
					e.z[j] = plainA[j]&plainB[j] ^ maskC[j]
				}
			}
		case KindSquare:
			plainA := drawWords(r, la)
			maskA := drawWords(r, la)
			maskZ := drawWords(r, lz)
			if want0 {
				e := &s0.entries[i]
				e.a, e.z = maskA, maskZ
			}
			if want1 {
				e := &s1.entries[i]
				e.a = subWords(plainA, maskA)
				defs = append(defs, deferredZ{idx: i, plainA: plainA, plainB: plainA, maskZ: maskZ})
			}
		case KindMatMulFixedB, KindConvFixedB:
			// Dealer order: fill(a), pick(a), pick(z). b never touches the
			// main stream — it is derived from (maskSeed, slot, length), the
			// same function the live dealer and Party.OpenFixedW use, so a
			// store-fed flush multiplies against exactly the b behind the
			// session's opened F = W−b.
			lbFix := d.fixedMaskLen()
			plainB, ok := fixedPlains[d.Mask]
			if !ok {
				plainB = mpc.FixedMaskPlain(maskSeed, d.Mask, lbFix)
				if fixedPlains == nil {
					fixedPlains = make(map[int][]uint64)
				}
				fixedPlains[d.Mask] = plainB
			} else if len(plainB) != lbFix {
				return nil, nil, fmt.Errorf("corr: tape entry %d: fixed mask slot %d pinned to length %d, demand %s needs %d (one slot, one session-constant tensor)",
					i, d.Mask, len(plainB), d, lbFix)
			}
			plainA := drawWords(r, la)
			maskA := drawWords(r, la)
			maskZ := drawWords(r, lz)
			if want0 {
				e := &s0.entries[i]
				e.a, e.z = maskA, maskZ
			}
			if want1 {
				e := &s1.entries[i]
				e.a = subWords(plainA, maskA)
				defs = append(defs, deferredZ{idx: i, plainA: plainA, plainB: plainB, maskZ: maskZ})
			}
		default: // hadamard, matmul, conv: full (a, b, z) triples
			plainA := drawWords(r, la)
			plainB := drawWords(r, lb)
			maskA := drawWords(r, la)
			maskB := drawWords(r, lb)
			maskZ := drawWords(r, lz)
			if want0 {
				e := &s0.entries[i]
				e.a, e.b, e.z = maskA, maskB, maskZ
			}
			if want1 {
				e := &s1.entries[i]
				e.a = subWords(plainA, maskA)
				e.b = subWords(plainB, maskB)
				defs = append(defs, deferredZ{idx: i, plainA: plainA, plainB: plainB, maskZ: maskZ})
			}
		}
	}
	if len(defs) > 0 {
		computeDeferred(tape, s1, defs)
	}
	return s0, s1, nil
}

// computeDeferred runs the heavy z-half products across worker goroutines
// sized from the kernel pool's parallelism degree. The per-product kernels
// are themselves chunked on the shared pool, and their accumulation order
// never depends on worker count, so store material is bit-identical for
// any kernel.SetWorkers / SetNaive configuration — the invariant that lets
// a store recorded under one setting replay under another.
func computeDeferred(tape Tape, s1 *Store, defs []deferredZ) {
	workers := kernel.Workers()
	if workers > len(defs) {
		workers = len(defs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(defs) {
					return
				}
				df := defs[i]
				d := tape[df.idx]
				_, _, lz := d.lens()
				z := make([]uint64, lz)
				switch d.Kind {
				case KindHadamard, KindSquare:
					kernel.Mul(z, df.plainA, df.plainB)
				case KindMatMul, KindMatMulFixedB:
					kernel.MatMul(z, df.plainA, df.plainB, d.M, d.K, d.P)
				case KindConv, KindConvFixedB:
					kernel.Conv2D(z, df.plainA, df.plainB, convShape(d.Conv))
				}
				kernel.Sub(z, z, df.maskZ) // party 1's half: plainZ − maskZ
				s1.entries[df.idx].z = z
			}
		}()
	}
	wg.Wait()
}

// convShape maps the mpc geometry onto the kernel package's conv shape.
func convShape(d mpc.ConvDims) kernel.ConvShape {
	return kernel.ConvShape{
		N: d.N, InC: d.InC, H: d.H, W: d.W,
		OutC: d.OutC, KH: d.KH, KW: d.KW,
		Stride: d.Stride, Pad: d.Pad, Groups: d.Groups,
	}
}

func drawWords(r *rng.RNG, n int) []uint64 {
	out := make([]uint64, n)
	r.FillUint64(out)
	return out
}

func subWords(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	kernel.Sub(out, a, b)
	return out
}

func xorWords(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// next validates and consumes the cursor's entry against the online
// phase's actual request. The error text names the correlation kind and
// the recorded vs requested geometry so a misprovisioned deployment is
// diagnosable from either party's log alone.
func (s *Store) next(want Demand) (*entry, error) {
	if s.cursor >= len(s.entries) {
		return nil, fmt.Errorf(
			"corr: store exhausted: online phase requested %s as correlation #%d, but the preprocessed store holds only %d correlations (preprocess more flushes or fall back to the live dealer)",
			want, s.cursor+1, len(s.entries))
	}
	if got := s.tape[s.cursor]; got != want {
		return nil, fmt.Errorf(
			"corr: store geometry mismatch at correlation #%d: store recorded %s, online phase requested %s (was the store preprocessed for a different batch geometry?)",
			s.cursor+1, got, want)
	}
	e := &s.entries[s.cursor]
	s.cursor++
	return e, nil
}

// TakeHadamard implements mpc.CorrelationSource.
func (s *Store) TakeHadamard(n int) (a, b, z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindHadamard, N: n})
	if err != nil {
		return nil, nil, nil, err
	}
	return e.a, e.b, e.z, nil
}

// TakeSquare implements mpc.CorrelationSource.
func (s *Store) TakeSquare(n int) (a, z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindSquare, N: n})
	if err != nil {
		return nil, nil, err
	}
	return e.a, e.z, nil
}

// TakeMatMul implements mpc.CorrelationSource.
func (s *Store) TakeMatMul(m, k, p int) (a, b, z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindMatMul, M: m, K: k, P: p})
	if err != nil {
		return nil, nil, nil, err
	}
	return e.a, e.b, e.z, nil
}

// TakeConv implements mpc.CorrelationSource.
func (s *Store) TakeConv(dims mpc.ConvDims) (a, b, z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindConv, Conv: dims})
	if err != nil {
		return nil, nil, nil, err
	}
	return e.a, e.b, e.z, nil
}

// TakeMatMulFixedB implements mpc.CorrelationSource.
func (s *Store) TakeMatMulFixedB(mask, m, k, p int) (a, z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindMatMulFixedB, Mask: mask, M: m, K: k, P: p})
	if err != nil {
		return nil, nil, err
	}
	return e.a, e.z, nil
}

// TakeConvFixedB implements mpc.CorrelationSource.
func (s *Store) TakeConvFixedB(mask int, dims mpc.ConvDims) (a, z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindConvFixedB, Mask: mask, Conv: dims})
	if err != nil {
		return nil, nil, err
	}
	return e.a, e.z, nil
}

// TakeBits implements mpc.CorrelationSource.
func (s *Store) TakeBits(n int) (ta, tb, tc mpc.BitShare, err error) {
	e, err := s.next(Demand{Kind: KindBits, N: n})
	if err != nil {
		return mpc.BitShare{}, mpc.BitShare{}, mpc.BitShare{}, err
	}
	return mpc.BitShare{N: n, W: e.a}, mpc.BitShare{N: n, W: e.b}, mpc.BitShare{N: n, W: e.z}, nil
}
