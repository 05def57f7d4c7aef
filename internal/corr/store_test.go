package corr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// fixedConvDims is the conv geometry of testTape's fixed-mask demand.
var fixedConvDims = mpc.ConvDims{N: 1, InC: 2, H: 5, W: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}

// testTape is two flushes of a program that demands all seven correlation
// kinds at mixed geometries: a grouped (depthwise) convolution, bit-triple
// batches ending on and off a word boundary, and fixed-mask demands whose
// slots are reused across flushes (the whole point of the scheme) while
// every other kind draws fresh material.
func testTape() Tape {
	flush := Tape{
		{Kind: KindConv, Conv: mpc.ConvDims{N: 2, InC: 3, H: 6, W: 6, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{Kind: KindConvFixedB, Mask: 0, Conv: fixedConvDims},
		{Kind: KindBits, N: 192},
		{Kind: KindHadamard, N: 96},
		{Kind: KindSquare, N: 50},
		{Kind: KindMatMulFixedB, Mask: 1, M: 2, K: 12, P: 4},
		{Kind: KindMatMul, M: 4, K: 9, P: 5},
		{Kind: KindConv, Conv: mpc.ConvDims{N: 1, InC: 4, H: 5, W: 5, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}},
		{Kind: KindHadamard, N: 7},
		{Kind: KindBits, N: 526},
		{Kind: KindBits, N: 1},
	}
	return flush.Repeat(2)
}

// buildSeeded is one party's store off a fresh dealer stream from seed,
// matching mpc.NewDealer(seed, party): the stream seed doubles as the mask
// seed, exactly as it does for a live dealer.
func buildSeeded(tape Tape, party int, seed uint64) (*Store, error) {
	s0, s1, err := BuildPair(tape, rng.New(seed), seed)
	if party == 0 {
		return s0, err
	}
	return s1, err
}

// take draws the demand's correlation from src through the
// CorrelationSource method of its kind and returns the a, b and z halves
// as words (b is nil for square pairs and the FixedB kinds; bit triples
// come back packed).
func take(src mpc.CorrelationSource, d Demand) (a, b, z []uint64, err error) {
	switch d.Kind {
	case KindHadamard:
		return src.TakeHadamard(d.N)
	case KindSquare:
		a, z, err = src.TakeSquare(d.N)
	case KindMatMul:
		return src.TakeMatMul(d.M, d.K, d.P)
	case KindConv:
		return src.TakeConv(d.Conv)
	case KindMatMulFixedB:
		a, z, err = src.TakeMatMulFixedB(d.Mask, d.M, d.K, d.P)
	case KindConvFixedB:
		a, z, err = src.TakeConvFixedB(d.Mask, d.Conv)
	case KindBits:
		ta, tb, tc, err := src.TakeBits(d.N)
		if err == nil && (ta.N != d.N || tb.N != d.N || tc.N != d.N) {
			err = fmt.Errorf("bit triples of %d/%d/%d bits for %s", ta.N, tb.N, tc.N, d)
		}
		return ta.W, tb.W, tc.W, err
	default:
		err = fmt.Errorf("unknown demand %s", d)
	}
	return a, nil, z, err
}

func eqWords(t *testing.T, name string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d differs: %x vs %x", name, i, got[i], want[i])
		}
	}
}

// drainAgainstDealer consumes the store in tape order and compares every
// correlation byte-for-byte against a live dealer on the same seed — the
// invariant that makes store-fed online phases bit-identical to the
// live-dealer path.
func drainAgainstDealer(t *testing.T, s *Store, seed uint64, tape Tape) {
	t.Helper()
	d := mpc.NewDealer(seed, s.Party())
	for i, dem := range tape {
		name := fmt.Sprintf("entry %d (%s)", i, dem)
		wa, wb, wz, err := take(d, dem)
		if err != nil {
			t.Fatalf("%s dealer: %v", name, err)
		}
		ga, gb, gz, err := take(s, dem)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eqWords(t, name+" a", ga, wa)
		eqWords(t, name+" b", gb, wb)
		eqWords(t, name+" z", gz, wz)
	}
	if s.Remaining() != 0 {
		t.Fatalf("store has %d correlations left after draining the tape", s.Remaining())
	}
}

// TestGoldenStoreAndDealerBytes pins FNV-1a digests of both parties'
// encoded stores (the body after the magic, which TestStoreVersionGate
// pins) and of both parties' live-dealer halves, per correlation kind, so
// a change to a kind's draw order or the file layout cannot pass as a
// refactor: store ≡ dealer suites alone cannot see a change that moves
// both sides together. Each kind's digests come from a store and dealers
// dealing only testTape's demands of that kind, so a kind's draws are
// pinned apart from the draws of the kinds before it. The bits and
// hadamard rows were re-recorded on purpose when those triples went
// owner-split (PASCORR6): party 0's file, a seed and the tape, did not
// move, but its halves and party 1's did. The hadamard row was re-recorded
// on purpose again, alone, when the kind became the selector triple
// (PASCORR9): every half of both parties moved, and the stores' bytes with
// party 1's z halves. The other rows are what the symmetric-triple code
// gives for the same per-kind tapes, unmoved by either change.
func TestGoldenStoreAndDealerBytes(t *testing.T) {
	const seed = 20261015
	// Per kind: store p0, store p1, dealer p0, dealer p1.
	want := map[Kind][4]uint64{
		KindHadamard:     {0x91a443340a0e23aa, 0xad9514f7c9630432, 0x5858988f2b81d157, 0x679e2b83d53cf800},
		KindSquare:       {0x2d296e96e087558f, 0x03b4649267bf4c43, 0x3f04b59147484d04, 0x8fdb7e0f5b9c7c32},
		KindMatMul:       {0x84155812efaa8c59, 0x8de509908531f024, 0x6a80769e6a877fcf, 0x63ea1a1c251bb9c7},
		KindConv:         {0x827e05a2d7863b9b, 0x933afbe10738d43e, 0x62a1dd03d1dc26e2, 0xdf11628685d7edd2},
		KindBits:         {0x7480b8d3ace1db36, 0x579e61db93b226e0, 0x0ac7e9a5eede61ef, 0xff3e50f1c41a0608},
		KindMatMulFixedB: {0x6ee0263d0d6df388, 0x082bd89782fd986a, 0x921ed68dc01741bc, 0xf76cc9499a2bda32},
		KindConvFixedB:   {0xd5d7580a87a67df1, 0xf9067f429d4ac2d8, 0xb8a9ffa304462057, 0x259ab943dfe1e07b},
	}
	for kind, w := range want {
		var tape Tape
		for _, d := range testTape() {
			if d.Kind == kind {
				tape = append(tape, d)
			}
		}
		var got [4]uint64
		s0, s1, err := BuildPair(tape, rng.New(seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Store{s0, s1} {
			h := fnv.New64a()
			h.Write(s.Encode()[len(storeMagic):])
			got[s.Party()] = h.Sum64()
		}
		for party := 0; party < 2; party++ {
			d := mpc.NewDealer(seed, party)
			h := fnv.New64a()
			for _, dem := range tape {
				a, b, z, err := take(d, dem)
				if err != nil {
					t.Fatal(err)
				}
				for _, ws := range [][]uint64{a, b, z} {
					for _, w := range ws {
						h.Write(binary.LittleEndian.AppendUint64(nil, w))
					}
				}
			}
			got[2+party] = h.Sum64()
		}
		if got != w {
			t.Errorf("%s digests {store p0, store p1, dealer p0, dealer p1} = {%#016x, %#016x, %#016x, %#016x}, want {%#016x, %#016x, %#016x, %#016x}",
				kind, got[0], got[1], got[2], got[3], w[0], w[1], w[2], w[3])
		}
	}
}

// TestOwnerSplitTriplesOneSided asserts that bit and selector triples come
// owner-split from both sources: party 0's TakeBits/TakeHadamard return no
// a, party 1's no b, the held operands' bits past the last triple are
// clear, and with the z halves they still satisfy c0 ⊕ c1 = a ∧ b (bits)
// and z0 + z1 = [c1 ⊙ r0 ; c0 ⊙ r1] for a = [c1 ; r1], b = [c0 ; r0]
// (selectors).
func TestOwnerSplitTriplesOneSided(t *testing.T) {
	const seed = 61
	tape := Tape{{Kind: KindHadamard, N: 33}, {Kind: KindBits, N: 130}, {Kind: KindHadamard, N: 64}}
	s0, s1, err := BuildPair(tape, rng.New(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string][2]mpc.CorrelationSource{
		"dealer": {mpc.NewDealer(seed, 0), mpc.NewDealer(seed, 1)},
		"store":  {s0, s1},
	}
	for name, src := range sources {
		for _, d := range tape {
			a0, b0, z0, err := take(src[0], d)
			if err != nil {
				t.Fatal(err)
			}
			a1, b1, z1, err := take(src[1], d)
			if err != nil {
				t.Fatal(err)
			}
			if a0 != nil || b1 != nil {
				t.Fatalf("%s %s: party 0 holds %d a words, party 1 %d b words; want none", name, d, len(a0), len(b1))
			}
			nw := mpc.BitWords(d.N)
			if tail := uint(d.N) & 63; tail != 0 && (a1[nw-1]>>tail != 0 || b0[nw-1]>>tail != 0) {
				t.Fatalf("%s %s: bits set past the last triple", name, d)
			}
			if d.Kind == KindBits {
				for i := range z0 {
					if z0[i]^z1[i] != a1[i]&b0[i] {
						t.Fatalf("%s %s: word %d is not a ∧ b", name, d, i)
					}
				}
				continue
			}
			c1, c0 := mpc.BitShare{N: d.N, W: a1[:nw]}, mpc.BitShare{N: d.N, W: b0[:nw]}
			r1, r0 := a1[nw:], b0[nw:]
			for i := range d.N {
				if z0[i]+z1[i] != c1.Bit(i)*r0[i] || z0[d.N+i]+z1[d.N+i] != c0.Bit(i)*r1[i] {
					t.Fatalf("%s %s: select %d: z is not [c1·r0 ; c0·r1]", name, d, i)
				}
			}
		}
	}
}

// TestStoreMatchesLiveDealerStream pins the core invariant for both
// parties: a store built from seed S hands out byte-identical material to
// a live Dealer(S, party) consuming the same demand sequence.
func TestStoreMatchesLiveDealerStream(t *testing.T) {
	tape := testTape()
	for party := 0; party < 2; party++ {
		s, err := buildSeeded(tape, party, 1234)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(tape) || s.Remaining() != len(tape) {
			t.Fatalf("party %d: Len=%d Remaining=%d want %d", party, s.Len(), s.Remaining(), len(tape))
		}
		drainAgainstDealer(t, s, 1234, tape)
	}
}

// TestBuildPairSharesOneStream checks that BuildPair deals both parties'
// halves off a single stream, each identical to its party's live dealer.
func TestBuildPairSharesOneStream(t *testing.T) {
	tape := testTape()
	s0, s1, err := BuildPair(tape, rng.New(77), 77)
	if err != nil {
		t.Fatal(err)
	}
	drainAgainstDealer(t, s0, 77, tape)
	drainAgainstDealer(t, s1, 77, tape)
}

// TestBuildDeterministicAcrossKernelSettings asserts store material does
// not depend on worker count or the naive-vs-lowered kernel path, so a
// store recorded under one setting replays under another.
func TestBuildDeterministicAcrossKernelSettings(t *testing.T) {
	tape := testTape()
	ref, err := buildSeeded(tape, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	settings := []struct {
		workers int
		naive   bool
	}{{1, false}, {8, false}, {1, true}, {8, true}}
	for _, cfg := range settings {
		prevW := kernel.SetWorkers(cfg.workers)
		prevN := kernel.SetNaive(cfg.naive)
		s, err := buildSeeded(tape, 1, 9)
		kernel.SetWorkers(prevW)
		kernel.SetNaive(prevN)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.entries {
			eqWords(t, "a", s.entries[i].a, ref.entries[i].a)
			eqWords(t, "b", s.entries[i].b, ref.entries[i].b)
			eqWords(t, "z", s.entries[i].z, ref.entries[i].z)
		}
	}
}

// TestStoreExhaustionAndMismatchErrors pins the descriptive error
// contract: exhaustion and geometry mismatches name the correlation kind
// and the recorded vs requested shape, and a kind mismatch says to
// regenerate the store rather than blaming the batch geometry.
func TestStoreExhaustionAndMismatchErrors(t *testing.T) {
	tape := Tape{{Kind: KindHadamard, N: 8}}
	s, err := buildSeeded(tape, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong kind at the cursor.
	if _, _, err := s.TakeSquare(8); err == nil {
		t.Fatal("kind mismatch must error")
	} else if !strings.Contains(err.Error(), "hadamard(n=8)") || !strings.Contains(err.Error(), "square(n=8)") ||
		!strings.Contains(err.Error(), "regenerate") || strings.Contains(err.Error(), "batch geometry") {
		t.Fatalf("kind mismatch error must name both demands and the regenerate hint, got: %v", err)
	}
	// Wrong geometry for the right kind.
	if _, _, _, err := s.TakeHadamard(9); err == nil {
		t.Fatal("geometry mismatch must error")
	} else if !strings.Contains(err.Error(), "hadamard(n=9)") || !strings.Contains(err.Error(), "batch geometry") {
		t.Fatalf("mismatch error must name the requested shape, got: %v", err)
	}
	// A failed take must not advance the cursor.
	if _, _, _, err := s.TakeHadamard(8); err != nil {
		t.Fatalf("matching take after mismatch: %v", err)
	}
	// Exhaustion.
	if _, _, _, err := s.TakeHadamard(8); err == nil {
		t.Fatal("exhausted store must error")
	} else if !strings.Contains(err.Error(), "exhausted") || !strings.Contains(err.Error(), "hadamard(n=8)") {
		t.Fatalf("exhaustion error must name the demand, got: %v", err)
	}
}

// TestValidateRejectsOverflowingConv pins the overflow hardening: conv
// geometries whose individual fields or whose products escape the size
// cap (including ones that wrap int64 into negative lengths, which would
// panic makeslice in the decoder) must be rejected by validate, not
// crash.
func TestValidateRejectsOverflowingConv(t *testing.T) {
	cases := []mpc.ConvDims{
		// Fields near 2^31: the products wrap negative.
		{N: 2, InC: 1, H: 1 << 31, W: 1 << 31, OutC: 1, KH: 1, KW: 1, Stride: 1 << 31},
		// Every field under the cap, but the input product overflows.
		{N: 1 << 20, InC: 1 << 20, H: 1 << 20, W: 1 << 20, OutC: 1, KH: 1, KW: 1, Stride: 1 << 20},
	}
	for i, c := range cases {
		d := Demand{Kind: KindConv, Conv: c}
		if err := d.validate(); err == nil {
			t.Fatalf("case %d: hostile conv geometry must not validate", i)
		}
		if _, err := buildSeeded(Tape{d}, 0, 1); err == nil {
			t.Fatalf("case %d: Build must reject the hostile tape", i)
		}
	}
}

// TestRecorderTape checks the recorder captures demands in order while
// passing the wrapped source's material through untouched.
func TestRecorderTape(t *testing.T) {
	rec := NewRecorder(mpc.NewDealer(3, 0))
	ref := mpc.NewDealer(3, 0)
	a, b, z, err := rec.TakeHadamard(5)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb, wz, _ := ref.TakeHadamard(5)
	eqWords(t, "rec a", a, wa)
	eqWords(t, "rec b", b, wb)
	eqWords(t, "rec z", z, wz)
	if _, _, _, err := rec.TakeConv(mpc.ConvDims{N: 1, InC: 1, H: 4, W: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := rec.TakeBits(12); err != nil {
		t.Fatal(err)
	}
	want := Tape{
		{Kind: KindHadamard, N: 5},
		{Kind: KindConv, Conv: mpc.ConvDims{N: 1, InC: 1, H: 4, W: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{Kind: KindBits, N: 12},
	}
	if !rec.Tape().Equal(want) {
		t.Fatalf("recorded tape %v != %v", rec.Tape(), want)
	}
}

// TestTapeRepeat checks flush-count expansion.
func TestTapeRepeat(t *testing.T) {
	tp := Tape{{Kind: KindHadamard, N: 2}, {Kind: KindBits, N: 3}}
	r3 := tp.Repeat(3)
	if len(r3) != 6 {
		t.Fatalf("repeat length %d", len(r3))
	}
	for i, d := range r3 {
		if d != tp[i%2] {
			t.Fatalf("repeat entry %d = %v", i, d)
		}
	}
}
