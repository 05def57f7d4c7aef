package corr

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// Suite for the fixed weight-mask correlation kinds (their store ≡ dealer
// replay inside a mixed program is part of testTape's, in store_test.go):
// a program of nothing but fixed-mask demands must replay and round-trip
// too, z must really be the product against the out-of-band derived mask
// b (even when the store's stream seed differs from the pair's dealer
// seed), the format-version gate must reject stores from the other version
// in both directions, and the mask slot must survive validation on the
// generate and decode paths.

// fixedOnlyTape is testTape's fixed-mask demands alone: both flushes
// re-take the same slots back to back, with no fresh draw in between.
func fixedOnlyTape() Tape {
	var tape Tape
	for _, d := range testTape() {
		if d.Kind == KindMatMulFixedB || d.Kind == KindConvFixedB {
			tape = append(tape, d)
		}
	}
	return tape
}

// TestStoreFixedBMatchesLiveDealerStream pins byte-identical replay for
// both parties across two flushes of fixed-mask demands only.
func TestStoreFixedBMatchesLiveDealerStream(t *testing.T) {
	tape := fixedOnlyTape()
	if len(tape) != 4 {
		t.Fatalf("fixed-only tape has %d demands, want 4", len(tape))
	}
	for party := 0; party < 2; party++ {
		s, err := buildSeeded(tape, party, 4242)
		if err != nil {
			t.Fatal(err)
		}
		drainAgainstDealer(t, s, 4242, tape)
	}
}

// TestFixedBFileRoundTrip pins the serialized form of the fixed-mask
// kinds: encode → decode → replay must be lossless, including the mask
// slot dims.
func TestFixedBFileRoundTrip(t *testing.T) {
	tape := fixedOnlyTape()
	s, err := buildSeeded(tape, 1, 555)
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
	drainAgainstDealer(t, loaded, 555, tape)
}

// TestFixedBProductAgainstDerivedMask takes the pair's plain a — party 1's
// alone; party 0's store holds none — reconstructs z, and checks z really
// is the product against the mask b derived from the *dealer* seed — with
// the store's randomness stream seeded differently, exactly the
// per-geometry-stream shape pi.WriteStorePair uses. A fresh a per flush,
// one b for the whole session.
func TestFixedBProductAgainstDerivedMask(t *testing.T) {
	const dealerSeed, streamSeed = 88, 991133
	tape := testTape()
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
				if a0 != nil {
					t.Fatalf("%s: party 0 holds %d activation-mask words, want none", dem, len(a0))
				}
				a, z := a1, recon(z0, z1)
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
				if a0 != nil {
					t.Fatalf("%s: party 0 holds %d activation-mask words, want none", dem, len(a0))
				}
				a, z := a1, recon(z0, z1)
				b := mpc.FixedMaskPlain(dealerSeed, dem.Mask, dem.Conv.KLen())
				want := make([]uint64, dem.Conv.OutLen())
				kernel.Conv2D(want, a, b, convShape(dem.Conv))
				eqWords(t, "fixedb conv z=conv(a,b)", z, want)
				flushA = append(flushA, a)
			default:
				for _, s := range []*Store{s0, s1} {
					if _, _, _, err := take(s, dem); err != nil {
						t.Fatal(err)
					}
				}
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

// convShape maps the mpc geometry onto the kernel package's conv shape.
func convShape(d mpc.ConvDims) kernel.ConvShape {
	return kernel.ConvShape{
		N: d.N, InC: d.InC, H: d.H, W: d.W,
		OutC: d.OutC, KH: d.KH, KW: d.KW,
		Stride: d.Stride, Pad: d.Pad, Groups: d.Groups,
	}
}

// TestStoreVersionGate is the corruption-matrix satellite's
// version-mismatch half. The CRC trailer covers the body but not the
// magic, so rewriting the magic yields exactly what the other binary
// version would produce/consume — both directions must fail with the
// regeneration hint, not a misparse:
//   - new binary × old store: a file of any retired magic, "PASCORR1" …
//     "PASCORR9", decoded here must be regenerated, not reinterpreted
//     (retiredStores says why for each; TestRetiredStoreMagicsRejected
//     loads each through ReadFile);
//   - old binary × new store: every earlier decoder compared the magic by
//     strict equality too, so the bump to "PASCORRA" (pinned below: a
//     residual's two heads share one activation mask) makes it reject our
//     files the same way.
//
// The message is the same for every version pair — it names the two
// magics and the fix, not what changed between them.
func TestStoreVersionGate(t *testing.T) {
	if storeMagic != "PASCORRA" {
		t.Fatalf("storeMagic = %q; shared-mask stores shipped as PASCORRA — a bump needs a version-history line in file.go and this pin moved", storeMagic)
	}
	s, err := buildSeeded(testTape(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	good := s.Encode()
	for _, r := range retiredStores() {
		other := r.magic
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

// retiredStore is a store magic before this one and a tape of the
// demands that changed under it.
type retiredStore struct {
	magic string
	tape  Tape
}

// retiredStores lists every retired magic, each with why a file of it
// must be regenerated rather than reinterpreted (see file.go's version
// history).
func retiredStores() []retiredStore {
	body := mpc.ConvDims{N: 1, InC: 2, H: 4, W: 4, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}
	short := body
	short.KH, short.KW, short.Pad = 1, 1, 0
	return []retiredStore{
		// PASCORR1–3 laid the file out differently altogether: no FixedB
		// kinds, bits one byte each, every half of both parties on disk.
		{"PASCORR1", testTape()},
		{"PASCORR2", testTape()},
		{"PASCORR3", testTape()},
		// PASCORR4 has this layout — a seed, the tape and party 1's z
		// halves — but its seed regenerates two-sided FixedB halves, which
		// the one-sided protocol would combine into wrong products.
		{"PASCORR4", fixedOnlyTape()},
		// PASCORR5's seed regenerates symmetric bit and Hadamard triples — a
		// and b halves on both parties — which the owned products would
		// read as whole operands and combine into wrong shares.
		{"PASCORR5", Tape{{Kind: KindBits, N: 526}, {Kind: KindHadamard, N: 96}}},
		// PASCORR6 decodes to valid triples, but its bit demands are the
		// six-hop comparison's — one element's ReLU took 496 leaf bits, four
		// tree levels of 32, 16, 8 and 4 and the select's 2 ring products —
		// so the first DReLU would fail mid-flush on a geometry mismatch
		// that hides the protocol change.
		{"PASCORR6", Tape{
			{Kind: KindBits, N: 496}, {Kind: KindBits, N: 32}, {Kind: KindBits, N: 16},
			{Kind: KindBits, N: 8}, {Kind: KindBits, N: 4}, {Kind: KindHadamard, N: 2},
		}},
		// PASCORR7 was dealt for a model whose every ReLU compares 63 bits —
		// 546 bit triples per element, a 434-bit leaf, a 98-bit level and a
		// 14-bit root — so the first ReLU that now runs the 21-bit
		// comparison (a 147-bit leaf, then a 30-bit root) would fail
		// mid-flush.
		{"PASCORR7", Tape{
			{Kind: KindBits, N: 434}, {Kind: KindBits, N: 98}, {Kind: KindBits, N: 14}, {Kind: KindHadamard, N: 2},
		}},
		// PASCORR8 dealt each select's Hadamard demand as an elementwise ring
		// triple of 2n words — a one-element narrow ReLU took a 147-bit
		// leaf, a 30-bit root and a Hadamard demand of 2 — where the one-bit
		// select now takes a selector triple for n.
		{"PASCORR8", Tape{
			{Kind: KindBits, N: 147}, {Kind: KindBits, N: 30}, {Kind: KindHadamard, N: 2},
		}},
		// PASCORR9 dealt a downsampling residual's 1×1 shortcut a fresh
		// activation mask, where the engine now runs it under the body
		// conv's mask and takes a shared-mask demand, so the shortcut would
		// fail mid-flush on a mask mismatch.
		{"PASCORR9", Tape{
			{Kind: KindConvFixedB, Mask: 3, Conv: body}, {Kind: KindConvFixedB, Mask: 5, Conv: short},
		}},
	}
}

// TestRetiredStoreMagicsRejected: a store directory written under any
// retired magic must fail at load, on either party, naming its version
// and how to fix it, rather than misparse or fail mid-flush.
func TestRetiredStoreMagicsRejected(t *testing.T) {
	for _, r := range retiredStores() {
		t.Run(r.magic, func(t *testing.T) { checkOldStoreRejected(t, r.magic, r.tape) })
	}
}

// checkOldStoreRejected writes both parties' stores for tape under the
// older magic version and checks that ReadFile refuses each by name, with
// the regenerate-the-store hint and the path.
func checkOldStoreRejected(t *testing.T, version string, tape Tape) {
	t.Helper()
	s0, s1, err := BuildPair(tape, rng.New(12), 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{s0, s1} {
		path := filepath.Join(t.TempDir(), FileName(s.Party(), []int{1, 2, 5, 5}))
		old := s.Encode()
		copy(old, version)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil {
			t.Fatalf("party %d: a %s store must not load", s.Party(), version)
		}
		for _, want := range []string{`"` + version + `"`, `"` + storeMagic + `"`, "regenerate the store", path} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("party %d: error must contain %q, got: %v", s.Party(), want, err)
			}
		}
	}
}

// TestDecodeRejectsUnknownKind is the matrix's other axis: a store whose
// entry table names a correlation kind this binary does not know (however
// it got there — a future format, a miswritten file) fails with the
// kind in the error, not a misparse. The CRC is resealed so the test
// reaches the structural validator.
func TestDecodeRejectsUnknownKind(t *testing.T) {
	s, err := buildSeeded(Tape{{Kind: KindHadamard, N: 4}}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	kindOff := len(storeMagic) + headerLen // first entry's kind byte
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
		_, err := buildSeeded(Tape{{Kind: KindHadamard, N: 4, Mask: 2}}, 0, 1)
		if err == nil || !strings.Contains(err.Error(), "carries fixed mask slot") {
			t.Fatalf("plain kind with a mask slot must fail, got: %v", err)
		}
	})
	t.Run("slot-out-of-range", func(t *testing.T) {
		for _, mask := range []int{-1, mpc.MaxFixedMask + 1} {
			_, err := buildSeeded(Tape{{Kind: KindMatMulFixedB, Mask: mask, M: 1, K: 2, P: 2}}, 0, 1)
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
		_, err := buildSeeded(tape, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "pinned to length") {
			t.Fatalf("re-pinned slot must fail, got: %v", err)
		}
	})
	t.Run("decoded-slot-out-of-range", func(t *testing.T) {
		s, err := buildSeeded(Tape{{Kind: KindMatMulFixedB, Mask: 1, M: 1, K: 2, P: 2}}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		enc := s.Encode()
		maskOff := len(storeMagic) + headerLen + 1 // first entry's mask u32
		enc[maskOff+3] = 0x7f                      // ~2^31: far past MaxFixedMask
		reseal(enc)
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("hostile mask slot must be rejected, got: %v", err)
		}
	})
	t.Run("take-mask-mismatch", func(t *testing.T) {
		s, err := buildSeeded(Tape{{Kind: KindMatMulFixedB, Mask: 1, M: 1, K: 2, P: 2}}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = s.TakeMatMulFixedB(2, 1, 2, 2)
		if err == nil || !strings.Contains(err.Error(), "mask=1") || !strings.Contains(err.Error(), "mask=2") {
			t.Fatalf("mask-slot mismatch must name both slots, got: %v", err)
		}
	})
}
