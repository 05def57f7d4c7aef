package corr

import (
	"strings"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// testTape exercises every correlation kind with mixed geometries,
// including a grouped (depthwise) convolution and bit-triple batches that
// end on and off a word boundary.
func testTape() Tape {
	return Tape{
		{Kind: KindConv, Conv: mpc.ConvDims{N: 2, InC: 3, H: 6, W: 6, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{Kind: KindBits, N: 192},
		{Kind: KindHadamard, N: 96},
		{Kind: KindSquare, N: 50},
		{Kind: KindMatMul, M: 4, K: 9, P: 5},
		{Kind: KindConv, Conv: mpc.ConvDims{N: 1, InC: 4, H: 5, W: 5, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}},
		{Kind: KindHadamard, N: 7},
		{Kind: KindBits, N: 526},
		{Kind: KindBits, N: 1},
	}
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

func eqBits(t *testing.T, name string, got, want mpc.BitShare) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: %d bits vs %d", name, got.N, want.N)
	}
	eqWords(t, name, got.W, want.W)
}

// drainAgainstDealer consumes the store in tape order and compares every
// correlation byte-for-byte against a live dealer on the same seed — the
// stream-replication invariant that makes store-fed online phases
// bit-identical to the live-dealer path.
func drainAgainstDealer(t *testing.T, s *Store, seed uint64, tape Tape) {
	t.Helper()
	d := mpc.NewDealer(seed, s.Party())
	for i, dem := range tape {
		switch dem.Kind {
		case KindHadamard:
			wa, wb, wz := d.HadamardTriple(dem.N)
			ga, gb, gz, err := s.TakeHadamard(dem.N)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqWords(t, "hadamard a", ga, wa)
			eqWords(t, "hadamard b", gb, wb)
			eqWords(t, "hadamard z", gz, wz)
		case KindSquare:
			wa, wz := d.SquarePair(dem.N)
			ga, gz, err := s.TakeSquare(dem.N)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqWords(t, "square a", ga, wa)
			eqWords(t, "square z", gz, wz)
		case KindMatMul:
			wa, wb, wz := d.MatMulTriple(dem.M, dem.K, dem.P)
			ga, gb, gz, err := s.TakeMatMul(dem.M, dem.K, dem.P)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqWords(t, "matmul a", ga, wa)
			eqWords(t, "matmul b", gb, wb)
			eqWords(t, "matmul z", gz, wz)
		case KindConv:
			wa, wb, wz := d.ConvTriple(dem.Conv)
			ga, gb, gz, err := s.TakeConv(dem.Conv)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqWords(t, "conv a", ga, wa)
			eqWords(t, "conv b", gb, wb)
			eqWords(t, "conv z", gz, wz)
		case KindBits:
			wa, wb, wc := d.BitTriples(dem.N)
			ga, gb, gc, err := s.TakeBits(dem.N)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqBits(t, "bits a", ga, wa)
			eqBits(t, "bits b", gb, wb)
			eqBits(t, "bits c", gc, wc)
		}
	}
	if s.Remaining() != 0 {
		t.Fatalf("store has %d correlations left after draining the tape", s.Remaining())
	}
}

// TestStoreMatchesLiveDealerStream pins the core invariant for both
// parties: a store built from seed S hands out byte-identical material to
// a live Dealer(S, party) consuming the same demand sequence.
func TestStoreMatchesLiveDealerStream(t *testing.T) {
	tape := testTape()
	for party := 0; party < 2; party++ {
		s, err := BuildSeeded(tape, party, 1234)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(tape) || s.Remaining() != len(tape) {
			t.Fatalf("party %d: Len=%d Remaining=%d want %d", party, s.Len(), s.Remaining(), len(tape))
		}
		drainAgainstDealer(t, s, 1234, tape)
	}
}

// TestBuildPairSharesOneStream checks that BuildPair produces both
// parties' halves off a single stream, identical to two per-party builds.
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
	ref, err := BuildSeeded(tape, 1, 9)
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
		s, err := BuildSeeded(tape, 1, 9)
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
// and the recorded vs requested shape.
func TestStoreExhaustionAndMismatchErrors(t *testing.T) {
	tape := Tape{{Kind: KindHadamard, N: 8}}
	s, err := BuildSeeded(tape, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong kind at the cursor.
	if _, _, err := s.TakeSquare(8); err == nil {
		t.Fatal("kind mismatch must error")
	} else if !strings.Contains(err.Error(), "hadamard(n=8)") || !strings.Contains(err.Error(), "square(n=8)") {
		t.Fatalf("mismatch error must name both demands, got: %v", err)
	}
	// Wrong geometry for the right kind.
	if _, _, _, err := s.TakeHadamard(9); err == nil {
		t.Fatal("geometry mismatch must error")
	} else if !strings.Contains(err.Error(), "hadamard(n=9)") {
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
		if _, err := BuildSeeded(Tape{d}, 0, 1); err == nil {
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
	wa, wb, wz := ref.HadamardTriple(5)
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
