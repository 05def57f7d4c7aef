package corr

import (
	"strings"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// Suite for the fixed weight-mask correlation kinds: store replay must
// stay byte-identical to the live dealer, z must really be the product
// against the out-of-band derived mask b (even when the store's stream
// seed differs from the pair's dealer seed), the format-version gate must
// reject stores from the other version in both directions, and the mask
// slot must survive validation on the generate and decode paths.

// fixedConvDims is the conv geometry used throughout this file.
var fixedConvDims = mpc.ConvDims{N: 1, InC: 2, H: 5, W: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}

// fixedTestTape is two flushes of a mixed program: the fixed kinds reuse
// their mask slots across flushes (the whole point of the scheme) while
// the ordinary kinds draw fresh material.
func fixedTestTape() Tape {
	flush := Tape{
		{Kind: KindConvFixedB, Mask: 0, Conv: fixedConvDims},
		{Kind: KindBits, N: 64},
		{Kind: KindMatMulFixedB, Mask: 1, M: 2, K: 12, P: 4},
		{Kind: KindHadamard, N: 9},
		{Kind: KindSquare, N: 5},
	}
	return flush.Repeat(2)
}

// drainFixedAgainstDealer is drainAgainstDealer extended with the fixed
// kinds: every store take must be byte-identical to the live dealer on the
// same seed consuming the same demand sequence.
func drainFixedAgainstDealer(t *testing.T, s *Store, seed uint64, tape Tape) {
	t.Helper()
	d := mpc.NewDealer(seed, s.Party())
	for i, dem := range tape {
		switch dem.Kind {
		case KindMatMulFixedB:
			wa, wz, err := d.TakeMatMulFixedB(dem.Mask, dem.M, dem.K, dem.P)
			if err != nil {
				t.Fatalf("entry %d dealer: %v", i, err)
			}
			ga, gz, err := s.TakeMatMulFixedB(dem.Mask, dem.M, dem.K, dem.P)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqWords(t, "matmul-fixedb a", ga, wa)
			eqWords(t, "matmul-fixedb z", gz, wz)
		case KindConvFixedB:
			wa, wz, err := d.TakeConvFixedB(dem.Mask, dem.Conv)
			if err != nil {
				t.Fatalf("entry %d dealer: %v", i, err)
			}
			ga, gz, err := s.TakeConvFixedB(dem.Mask, dem.Conv)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqWords(t, "conv-fixedb a", ga, wa)
			eqWords(t, "conv-fixedb z", gz, wz)
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
		case KindBits:
			wa, wb, wc := d.BitTriples(dem.N)
			ga, gb, gc, err := s.TakeBits(dem.N)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			eqBits(t, "bits a", ga, wa)
			eqBits(t, "bits b", gb, wb)
			eqBits(t, "bits c", gc, wc)
		default:
			t.Fatalf("entry %d: unhandled kind %s", i, dem.Kind)
		}
	}
	if s.Remaining() != 0 {
		t.Fatalf("store has %d correlations left after draining the tape", s.Remaining())
	}
}

// TestStoreFixedBMatchesLiveDealerStream pins byte-identical replay for
// both parties across two flushes of fixed-mask demands.
func TestStoreFixedBMatchesLiveDealerStream(t *testing.T) {
	tape := fixedTestTape()
	for party := 0; party < 2; party++ {
		s, err := BuildSeeded(tape, party, 4242)
		if err != nil {
			t.Fatal(err)
		}
		drainFixedAgainstDealer(t, s, 4242, tape)
	}
}

// TestFixedBProductAgainstDerivedMask reconstructs the pair's plain (a, z)
// and checks z really is the product against the mask b derived from the
// *dealer* seed — with the store's randomness stream seeded differently,
// exactly the per-geometry-stream shape pi.WriteStorePair uses. A fresh a
// per flush, one b for the whole session.
func TestFixedBProductAgainstDerivedMask(t *testing.T) {
	const dealerSeed, streamSeed = 88, 991133
	tape := fixedTestTape()
	s0, s1, err := BuildPair(tape, rng.New(streamSeed), dealerSeed)
	if err != nil {
		t.Fatal(err)
	}
	recon := func(h0, h1 []uint64) []uint64 {
		out := make([]uint64, len(h0))
		for i := range out {
			out[i] = h0[i] + h1[i]
		}
		return out
	}
	var flushA [][]uint64
	for f := 0; f < 2; f++ {
		for _, dem := range tape[:len(tape)/2] {
			switch dem.Kind {
			case KindMatMulFixedB:
				a0, z0, err := s0.TakeMatMulFixedB(dem.Mask, dem.M, dem.K, dem.P)
				if err != nil {
					t.Fatal(err)
				}
				a1, z1, err := s1.TakeMatMulFixedB(dem.Mask, dem.M, dem.K, dem.P)
				if err != nil {
					t.Fatal(err)
				}
				a, z := recon(a0, a1), recon(z0, z1)
				b := mpc.FixedMaskPlain(dealerSeed, dem.Mask, dem.K*dem.P)
				want := make([]uint64, dem.M*dem.P)
				kernel.MatMul(want, a, b, dem.M, dem.K, dem.P)
				eqWords(t, "fixedb matmul z=a@b", z, want)
				flushA = append(flushA, a)
			case KindConvFixedB:
				a0, z0, err := s0.TakeConvFixedB(dem.Mask, dem.Conv)
				if err != nil {
					t.Fatal(err)
				}
				a1, z1, err := s1.TakeConvFixedB(dem.Mask, dem.Conv)
				if err != nil {
					t.Fatal(err)
				}
				a, z := recon(a0, a1), recon(z0, z1)
				b := mpc.FixedMaskPlain(dealerSeed, dem.Mask, dem.Conv.KLen())
				want := make([]uint64, dem.Conv.OutLen())
				kernel.Conv2D(want, a, b, convShape(dem.Conv))
				eqWords(t, "fixedb conv z=conv(a,b)", z, want)
				flushA = append(flushA, a)
			default:
				skipDemand(t, s0, s1, dem)
			}
		}
	}
	// The activation masks must be fresh per flush — reusing them would
	// leak x−x' — so the two flushes' a vectors must differ.
	half := len(flushA) / 2
	for i := 0; i < half; i++ {
		same := true
		for j := range flushA[i] {
			if flushA[i][j] != flushA[i+half][j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("fixed demand %d: activation mask a repeated across flushes", i)
		}
	}
}

// skipDemand consumes one non-fixed demand from both stores.
func skipDemand(t *testing.T, s0, s1 *Store, dem Demand) {
	t.Helper()
	for _, s := range []*Store{s0, s1} {
		var err error
		switch dem.Kind {
		case KindHadamard:
			_, _, _, err = s.TakeHadamard(dem.N)
		case KindSquare:
			_, _, err = s.TakeSquare(dem.N)
		case KindBits:
			_, _, _, err = s.TakeBits(dem.N)
		default:
			t.Fatalf("skipDemand: unhandled kind %s", dem.Kind)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFixedBFileRoundTrip pins the serialized form of the new kinds:
// write → read → replay must be lossless, including the mask slot dims.
func TestFixedBFileRoundTrip(t *testing.T) {
	tape := fixedTestTape()
	s, err := BuildSeeded(tape, 1, 555)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Tape().Equal(tape) {
		t.Fatal("fixed-kind tape not preserved through encode/decode")
	}
	drainFixedAgainstDealer(t, loaded, 555, tape)
}

// TestStoreVersionGate is the corruption-matrix satellite's
// version-mismatch half. The CRC trailer covers the body but not the
// magic, so rewriting the magic yields exactly what the other binary
// version would produce/consume — both directions must fail with the
// regeneration hint, not a misparse:
//   - new binary × old store: a "PASCORR1" or "PASCORR2" file decoded
//     here;
//   - old binary × new store: every earlier decoder compared the magic by
//     strict equality too, so the bump to "PASCORR3" (pinned below: packed
//     bit triples, dealt for the OT-free comparison's tape) makes it
//     reject our files the same way.
//
// The message is the same for every version pair — it names the two
// magics and the fix, not what changed between them.
func TestStoreVersionGate(t *testing.T) {
	if storeMagic != "PASCORR3" {
		t.Fatalf("storeMagic = %q; packed bit triples shipped as PASCORR3 — a bump needs a version-history line in file.go and this pin moved", storeMagic)
	}
	s, err := BuildSeeded(testTape(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	good := s.Encode()
	for _, other := range []string{"PASCORR1", "PASCORR2", "PASCORR4"} {
		old := append([]byte(nil), good...)
		copy(old, other)
		_, err := Decode(old)
		if err == nil {
			t.Fatalf("version %s store must not decode", other)
		}
		if !strings.Contains(err.Error(), other) || !strings.Contains(err.Error(), storeMagic) ||
			!strings.Contains(err.Error(), "regenerate") || strings.Contains(err.Error(), "weight-mask") {
			t.Fatalf("version error must name both versions and the fix and no one version's reason, got: %v", err)
		}
	}
	// An unrelated magic is garbage, not another version.
	junk := append([]byte(nil), good...)
	copy(junk, "NOTCORR9")
	if _, err := Decode(junk); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("foreign magic: %v", err)
	}
}

// TestDecodeRejectsUnknownKind is the matrix's other axis: a store whose
// entry table names a correlation kind this binary does not know (however
// it got there — a future format, a miswritten file) fails with the
// kind in the error, not a misparse. The CRC is resealed so the test
// reaches the structural validator.
func TestDecodeRejectsUnknownKind(t *testing.T) {
	s, err := BuildSeeded(Tape{{Kind: KindHadamard, N: 4}}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	kindOff := len(storeMagic) + 1 + 4 + 4 // first entry's kind byte
	enc[kindOff] = 0xee
	reseal(enc)
	if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "unknown correlation kind 238") {
		t.Fatalf("unknown kind must be rejected by name, got: %v", err)
	}
}

// TestFixedBMaskValidation covers the mask-slot validators on every path:
// build-time tape validation, slot re-pinning, and the decoder behind a
// valid checksum.
func TestFixedBMaskValidation(t *testing.T) {
	t.Run("plain-kind-with-mask", func(t *testing.T) {
		_, err := BuildSeeded(Tape{{Kind: KindHadamard, N: 4, Mask: 2}}, 0, 1)
		if err == nil || !strings.Contains(err.Error(), "carries fixed mask slot") {
			t.Fatalf("plain kind with a mask slot must fail, got: %v", err)
		}
	})
	t.Run("slot-out-of-range", func(t *testing.T) {
		for _, mask := range []int{-1, mpc.MaxFixedMask + 1} {
			_, err := BuildSeeded(Tape{{Kind: KindMatMulFixedB, Mask: mask, M: 1, K: 2, P: 2}}, 0, 1)
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("mask %d must fail, got: %v", mask, err)
			}
		}
	})
	t.Run("slot-repinned", func(t *testing.T) {
		// One slot masking two different weight lengths is a protocol bug:
		// the generator must refuse, like the live dealer does.
		tape := Tape{
			{Kind: KindMatMulFixedB, Mask: 3, M: 1, K: 2, P: 2},
			{Kind: KindMatMulFixedB, Mask: 3, M: 1, K: 2, P: 3},
		}
		_, err := BuildSeeded(tape, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "pinned to length") {
			t.Fatalf("re-pinned slot must fail, got: %v", err)
		}
	})
	t.Run("decoded-slot-out-of-range", func(t *testing.T) {
		s, err := BuildSeeded(Tape{{Kind: KindMatMulFixedB, Mask: 1, M: 1, K: 2, P: 2}}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		enc := s.Encode()
		maskOff := len(storeMagic) + 1 + 4 + 4 + 1 // first entry's mask u32
		enc[maskOff+3] = 0x7f                      // ~2^31: far past MaxFixedMask
		reseal(enc)
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("hostile mask slot must be rejected, got: %v", err)
		}
	})
	t.Run("take-mask-mismatch", func(t *testing.T) {
		s, err := BuildSeeded(Tape{{Kind: KindMatMulFixedB, Mask: 1, M: 1, K: 2, P: 2}}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = s.TakeMatMulFixedB(2, 1, 2, 2)
		if err == nil || !strings.Contains(err.Error(), "mask=1") || !strings.Contains(err.Error(), "mask=2") {
			t.Fatalf("mask-slot mismatch must name both slots, got: %v", err)
		}
	})
}
