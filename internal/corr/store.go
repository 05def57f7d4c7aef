package corr

import (
	"fmt"
	"sync"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// maxEntryWords caps a single demand's element count. It bounds both the
// generator and — more importantly — the decoder, so a corrupt or hostile
// store file can never request a pathological allocation.
const maxEntryWords = 1 << 28

// maxStoreWords caps the words one decoded store holds, summed over its
// whole validated tape before the decoder allocates any of them. A store
// file carries a seed where it would carry masks, so its size no longer
// bounds what decoding it allocates; this does. BuildPair applies it to
// each party's store, so no store is built that could not be loaded. The
// largest store the served-query ledger provisions holds ≈ 20 M words per
// party.
const maxStoreWords = 1 << 28

// entry is one preprocessed correlation: this party's halves. For ring
// kinds z is an additive half, and a and b are additive halves of the
// symmetric kinds. The owner-split kinds hold each operand on one party: a
// on party 1's entries only, b (selector and bit triples) on party 0's
// only. b is nil for square pairs and the FixedB kinds. A shared-mask
// FixedB entry's a (party 1's) is its predecessor's, the same slice. For
// KindBits the words are packed, z the XOR half of c = a∧b.
type entry struct {
	a, b, z []uint64
}

// Store is a preprocessed correlation tape: one party's halves of every
// correlation a program evaluation will consume, in demand order, held
// materialised so no Take ever generates anything. The
// online phase consumes it through the mpc.CorrelationSource interface;
// every Take validates kind and geometry against the recorded demand and
// returns a descriptive error on mismatch or exhaustion, before any
// protocol bytes move — so both parties fail symmetrically instead of
// desyncing.
//
// Party 1's store can be bound to its session (Bind, ReadBoundFile): each
// FixedB entry's z₁ is then replaced in place by the op's output share
// Y₁ = trunc(a∘F + z₁) under the session's fixed weights, the same word
// count, and its FixedB takes hand out Y₁ where z₁ was (see mpc's
// fixedmask.go). Binding changes no file: a bound store is never encoded.
//
// A Store is not safe for concurrent use, mirroring the Dealer it
// replaces.
type Store struct {
	party   int
	label   uint32
	seed    uint64 // the party's mpc.Stream sub-stream seed; see file.go
	tape    Tape
	entries []entry
	cursor  int
	// binder is what the FixedB entries were bound with; nil: they hold z₁.
	binder *mpc.Binder
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

// Binder returns what the store was bound with, nil while unbound; it
// implements the bound-source check of mpc.Party.LinearFixedW.
func (s *Store) Binder() *mpc.Binder { return s.binder }

// Bind binds party 1's loaded store to the session b was made for: every
// unconsumed FixedB entry's z₁ becomes Y₁, on worker goroutines sized from
// the kernel pool. Every entry's pass is resolved before any runs, so a
// store of another program fails whole and stays unbound. A store is bound
// once: binding it again, to any binder, is refused.
func (s *Store) Bind(b *mpc.Binder) error {
	if err := s.bindable(b); err != nil {
		return err
	}
	var jobs []bindJob
	for i := s.cursor; i < len(s.entries); i++ {
		pass, err := passFor(b, s.tape[i])
		if err != nil {
			return fmt.Errorf("corr: bind entry %d (%s): %w", i, s.tape[i], err)
		}
		if pass != nil {
			jobs = append(jobs, bindJob{i, pass})
		}
	}
	bd := s.startBinding(len(jobs))
	for _, j := range jobs {
		bd.jobs <- j
	}
	bd.wait()
	s.binder = b
	return nil
}

// bindable checks that b may bind s: party 1's store, not bound yet.
func (s *Store) bindable(b *mpc.Binder) error {
	switch {
	case b == nil:
		return fmt.Errorf("corr: bind: nil binder")
	case s.party != 1:
		return fmt.Errorf("corr: bind: the store holds party %d's halves; only party 1's output share is bound offline", s.party)
	case s.binder != nil:
		return fmt.Errorf("corr: bind: the store is already bound (to the weights of dealer seed %#x); a store is bound once, to one session", s.binder.Seed())
	}
	return nil
}

// bindJob is one FixedB entry's owner pass, run by a binding's worker.
type bindJob struct {
	i    int
	pass func(dst, a, z []uint64)
}

// passFor returns party 1's owner pass of demand d under b, or nil for a
// demand of a kind binding leaves alone (every non-FixedB kind). A
// shared-mask entry's pass runs on the a it holds, its predecessor's.
func passFor(b *mpc.Binder, d Demand) (func(dst, a, z []uint64), error) {
	switch d.Kind {
	case KindConvFixedB:
		return b.Conv(d.Mask, d.Conv)
	case KindMatMulFixedB:
		return b.MatMul(d.Mask, d.M, d.K, d.P)
	}
	return nil, nil
}

// binding runs bind jobs on worker goroutines, as BuildPair runs its
// products: each worker writes Y₁ into a scratch buffer of its own and
// copies it over the entry's z₁.
type binding struct {
	jobs chan bindJob
	wg   sync.WaitGroup
}

// startBinding starts min(kernel.Workers(), n) workers over s's entries
// behind a queue of n jobs, so queueing a job never waits on a pass.
func (s *Store) startBinding(n int) *binding {
	bd := &binding{jobs: make(chan bindJob, n)}
	jobs := bd.jobs
	for range min(kernel.Workers(), n) {
		bd.wg.Add(1)
		go func() {
			defer bd.wg.Done()
			var tmp []uint64
			for j := range jobs {
				e := &s.entries[j.i]
				if cap(tmp) < len(e.z) {
					tmp = make([]uint64, len(e.z))
				}
				y := tmp[:len(e.z)]
				j.pass(y, e.a, e.z)
				copy(e.z, y)
			}
		}()
	}
	return bd
}

// wait closes the queue and waits for every queued pass to finish.
func (bd *binding) wait() {
	close(bd.jobs)
	bd.wg.Wait()
}

// lens returns the flat word counts (a, b, z) of party's side of the
// demand's correlation material. The owner-split kinds count a on party 1
// only and b on party 0 only; b is 0 for square pairs and the FixedB kinds,
// and a is 0 for a shared-mask FixedB demand, which reuses its
// predecessor's; bit triples pack 64 to a word; a selector triple's a and
// b are n packed bits and n words, its z 2n words.
func (d Demand) lens(party int) (la, lb, lz int) {
	switch d.Kind {
	case KindBits:
		nw := mpc.BitWords(d.N)
		return party * nw, (1 - party) * nw, nw
	case KindHadamard:
		nw := mpc.BitWords(d.N) + d.N
		return party * nw, (1 - party) * nw, 2 * d.N
	case KindSquare:
		return d.N, 0, d.N
	case KindMatMul:
		return d.M * d.K, d.K * d.P, d.M * d.P
	case KindMatMulFixedB:
		if d.Shared {
			return 0, 0, d.M * d.P
		}
		return party * d.M * d.K, 0, d.M * d.P
	case KindConv:
		return d.Conv.InLen(), d.Conv.KLen(), d.Conv.OutLen()
	case KindConvFixedB:
		if d.Shared {
			return 0, 0, d.Conv.OutLen()
		}
		return party * d.Conv.InLen(), 0, d.Conv.OutLen()
	default:
		return 0, 0, 0
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
// the non-fixed kinds carry none, nor the shared-mask flag (either on a
// plain triple means a miswritten or corrupted tape).
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
		if d.Shared {
			return fmt.Errorf("%s demand is marked shared-mask, which only a fixed-b kind can be", d.Kind)
		}
	}
	return nil
}

// isFixedB reports whether d is of a FixedB kind.
func (d Demand) isFixedB() bool {
	return d.Kind == KindMatMulFixedB || d.Kind == KindConvFixedB
}

// validateShared checks a shared-mask demand against the demand right
// before it on the tape (first: it has none), whose activation mask it
// reuses: that must be a FixedB demand masking an input of the same
// length. Any other demand passes.
func (d Demand) validateShared(prev Demand, first bool) error {
	switch {
	case !d.Shared:
		return nil
	case first || !prev.isFixedB():
		return fmt.Errorf("shared-mask demand %s has no fixed-b demand right before it to share an activation mask with", d)
	case prev.inLen() != d.inLen():
		return fmt.Errorf("shared-mask demand %s masks a %d-word input, but the demand before it, %s, masks %d words", d, d.inLen(), prev, prev.inLen())
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

// BuildPair deals both parties' stores for the tape off one mpc.Stream over
// the dealer stream r, so every correlation is the one a live dealer on the
// same stream would hand out. The draw pass keeps the stream's draw order
// and stores every half that is a sub-stream's output (party 0's z and the
// a and b halves it holds; party 1's a and b halves — see lens for which
// each party holds of which kind). Party 1's z halves
// need the correlation products, which worker goroutines sized from the
// kernel pool run as the draws hand them over. The per-product kernels are
// themselves chunked on the shared pool, and their accumulation order never
// depends on worker count, so store material is bit-identical for any
// kernel.SetWorkers / SetNaive configuration — the invariant that lets a
// store recorded under one setting replay under another. Each store keeps
// its party's sub-stream seed, which is all its file needs in place of
// those sub-stream halves.
//
// maskSeed is the *pair's* dealer seed, which may differ from r's stream:
// fixed weight masks (the FixedB kinds) are derived out-of-band from the
// dealer seed, not from the main stream, so a store provisioned off a
// per-geometry stream still replays z = a@b against the same b the
// session's live dealer minted and party 0 sent F = W−b under at setup. Tapes
// without FixedB demands never touch maskSeed.
func BuildPair(tape Tape, r *rng.RNG, maskSeed uint64) (p0, p1 *Store, err error) {
	var words [2]int
	for i, d := range tape {
		if err := d.validate(); err != nil {
			return nil, nil, fmt.Errorf("corr: tape entry %d: %w", i, err)
		}
		if err := d.validateShared(tape[max(i-1, 0)], i == 0); err != nil {
			return nil, nil, fmt.Errorf("corr: tape entry %d: %w", i, err)
		}
		for party := range words {
			la, lb, lz := d.lens(party)
			if words[party] += la + lb + lz; words[party] > maxStoreWords {
				return nil, nil, fmt.Errorf("corr: tape needs %d words in party %d's store by entry %d (%s), over the %d-word store cap", words[party], party, i, d, maxStoreWords)
			}
		}
	}
	stream := mpc.NewStream(r, maskSeed)
	s0 := &Store{party: 0, seed: stream.Seed(0), tape: append(Tape(nil), tape...), entries: make([]entry, len(tape))}
	s1 := &Store{party: 1, seed: stream.Seed(1), tape: append(Tape(nil), tape...), entries: make([]entry, len(tape))}
	type product struct {
		i int
		t mpc.Deal
	}
	// Sized to the sends, so the draw pass never waits on a product.
	products := make(chan product, len(tape))
	var wg sync.WaitGroup
	for range min(kernel.Workers(), len(tape)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range products {
				s1.entries[p.i].z = p.t.Z1()
			}
		}()
	}
	defer wg.Wait()
	defer close(products)
	for i, d := range tape {
		t, err := d.deal(stream)
		if err != nil {
			return nil, nil, fmt.Errorf("corr: tape entry %d (%s): %w", i, d, err)
		}
		s0.entries[i] = entry{a: t.A0, b: t.B0, z: t.Z0}
		s1.entries[i] = entry{a: t.A1, b: t.B1}
		products <- product{i, t}
	}
	return s0, s1, nil
}

// deal draws the demand's correlation off the stream, a full one or one
// party's half stream.
func (d Demand) deal(s *mpc.Stream) (mpc.Deal, error) {
	switch d.Kind {
	case KindHadamard:
		return s.Hadamard(d.N), nil
	case KindSquare:
		return s.Square(d.N), nil
	case KindMatMul:
		return s.MatMul(d.M, d.K, d.P), nil
	case KindConv:
		return s.Conv(d.Conv), nil
	case KindMatMulFixedB:
		if d.Shared {
			return s.MatMulFixedBShared(d.Mask, d.M, d.K, d.P)
		}
		return s.MatMulFixedB(d.Mask, d.M, d.K, d.P)
	case KindConvFixedB:
		if d.Shared {
			return s.ConvFixedBShared(d.Mask, d.Conv)
		}
		return s.ConvFixedB(d.Mask, d.Conv)
	case KindBits:
		return s.Bits(d.N), nil
	default:
		return mpc.Deal{}, fmt.Errorf("unknown correlation kind %d", uint8(d.Kind))
	}
}

// next validates and consumes the cursor's entry against the online
// phase's actual request. The error text names the correlation kind and
// the recorded vs requested geometry so a misprovisioned deployment is
// diagnosable from either party's log alone.
//
// A plain FixedB take of a shared-mask entry stays legal: the entry holds
// its predecessor's a and a z for that a, which is consistent material. The
// engine never asks for it — its takes and the tape come from one walk of
// one program — but a caller replaying a tape's linear demands one op at a
// time does; it then masks two inputs with one a, which a timing harness
// on random inputs may do and a session must not. A shared take of a
// fresh-mask entry is refused: that entry's z is for an a the caller has
// not got.
func (s *Store) next(want Demand) (*entry, error) {
	if s.cursor >= len(s.entries) {
		return nil, fmt.Errorf(
			"corr: store exhausted: online phase requested %s as correlation #%d, but the preprocessed store holds only %d correlations (preprocess more flushes or fall back to the live dealer)",
			want, s.cursor+1, len(s.entries))
	}
	got := s.tape[s.cursor]
	if got.Kind != want.Kind {
		// A different kind is a different protocol, not a different batch
		// geometry: e.g. a store written for per-flush weight masks (conv)
		// replayed by a session that opens W−b once (conv-fixedb).
		return nil, fmt.Errorf(
			"corr: store kind mismatch at correlation #%d: store recorded %s, online phase requested %s — the store was written for another protocol; regenerate it with this binary's preprocess step (pasnet-server -party preprocess)",
			s.cursor+1, got, want)
	}
	if want.Shared && !got.Shared {
		return nil, fmt.Errorf(
			"corr: store mask mismatch at correlation #%d: store recorded %s with a fresh activation mask, online phase requested %s — the store was written for a program that masks this input twice; regenerate it with this binary's preprocess step (pasnet-server -party preprocess)",
			s.cursor+1, got, want)
	}
	if !want.Shared {
		got.Shared = false
	}
	if got != want {
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

// TakeMatMulFixedBShared implements mpc.CorrelationSource.
func (s *Store) TakeMatMulFixedBShared(mask, m, k, p int) (z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindMatMulFixedB, Mask: mask, M: m, K: k, P: p, Shared: true})
	if err != nil {
		return nil, err
	}
	return e.z, nil
}

// TakeConvFixedBShared implements mpc.CorrelationSource.
func (s *Store) TakeConvFixedBShared(mask int, dims mpc.ConvDims) (z []uint64, err error) {
	e, err := s.next(Demand{Kind: KindConvFixedB, Mask: mask, Conv: dims, Shared: true})
	if err != nil {
		return nil, err
	}
	return e.z, nil
}

// TakeBits implements mpc.CorrelationSource.
func (s *Store) TakeBits(n int) (ta, tb, tc mpc.BitShare, err error) {
	e, err := s.next(Demand{Kind: KindBits, N: n})
	if err != nil {
		return mpc.BitShare{}, mpc.BitShare{}, mpc.BitShare{}, err
	}
	return mpc.BitShare{N: n, W: e.a}, mpc.BitShare{N: n, W: e.b}, mpc.BitShare{N: n, W: e.z}, nil
}
