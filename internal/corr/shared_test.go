package corr

import (
	"strings"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// Suite for shared-mask FixedB demands: the second linear op on one
// activation (a downsampling residual's 1×1 shortcut next to its first
// body conv) reuses the a of the FixedB demand right before it. Store and
// dealer must agree on it, it must draw no a, its z must be the product
// of that a with its own fixed mask, and the decoder must refuse one that
// has no such predecessor.

var (
	sharedBodyDims  = mpc.ConvDims{N: 2, InC: 3, H: 6, W: 6, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}
	sharedShortDims = mpc.ConvDims{N: 2, InC: 3, H: 6, W: 6, OutC: 5, KH: 1, KW: 1, Stride: 2}
)

// sharedTape holds a conv pair and a matmul pair on one input each, the
// second of each pair shared-mask, around other kinds; two flushes.
func sharedTape() Tape {
	return Tape{
		{Kind: KindConvFixedB, Mask: 0, Conv: sharedBodyDims},
		{Kind: KindConvFixedB, Mask: 2, Conv: sharedShortDims, Shared: true},
		{Kind: KindBits, N: 70},
		{Kind: KindMatMulFixedB, Mask: 1, M: 2, K: 12, P: 4},
		{Kind: KindMatMulFixedB, Mask: 3, M: 2, K: 12, P: 3, Shared: true},
		{Kind: KindSquare, N: 9},
	}.Repeat(2)
}

// TestSharedMaskStoreMatchesDealer pins byte-identical replay of a tape
// with shared-mask demands for both parties, through a file round trip
// too.
func TestSharedMaskStoreMatchesDealer(t *testing.T) {
	tape := sharedTape()
	for party := 0; party < 2; party++ {
		s, err := buildSeeded(tape, party, 707)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Decode(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.Tape().Equal(tape) {
			t.Fatalf("party %d: shared flags not preserved through encode/decode", party)
		}
		drainAgainstDealer(t, s, 707, tape)
		drainAgainstDealer(t, loaded, 707, tape)
	}
}

// TestSharedMaskDrawsNoActivation checks that a shared-mask demand takes
// nothing off party 1's sub-stream: party 1's halves of everything after
// it are the ones a tape without it deals.
func TestSharedMaskDrawsNoActivation(t *testing.T) {
	tape := sharedTape()
	var fresh Tape
	for _, d := range tape {
		if !d.Shared {
			fresh = append(fresh, d)
		}
	}
	_, with, err := BuildPair(tape, rng.New(31), 31)
	if err != nil {
		t.Fatal(err)
	}
	_, without, err := BuildPair(fresh, rng.New(31), 31)
	if err != nil {
		t.Fatal(err)
	}
	j := 0
	for i, d := range tape {
		if d.Shared {
			continue
		}
		eqWords(t, d.String()+" a", with.entries[i].a, without.entries[j].a)
		j++
	}
}

// TestSharedMaskProduct reconstructs each shared demand's z and checks it
// is the product of its predecessor's a with the shared demand's own
// fixed mask — one a, two products.
func TestSharedMaskProduct(t *testing.T) {
	const dealerSeed = 5
	tape := sharedTape()
	s0, s1, err := BuildPair(tape, rng.New(17), dealerSeed)
	if err != nil {
		t.Fatal(err)
	}
	var a []uint64
	for _, d := range tape {
		_, _, z0, err := take(s0, d)
		if err != nil {
			t.Fatal(err)
		}
		a1, _, z1, err := take(s1, d)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Shared {
			a = a1
			continue
		}
		z := make([]uint64, len(z0))
		for i := range z {
			z[i] = z0[i] + z1[i]
		}
		want := make([]uint64, len(z))
		if d.Kind == KindConvFixedB {
			kernel.Conv2D(want, a, mpc.FixedMaskPlain(dealerSeed, d.Mask, d.Conv.KLen()), convShape(d.Conv))
		} else {
			kernel.MatMul(want, a, mpc.FixedMaskPlain(dealerSeed, d.Mask, d.K*d.P), d.M, d.K, d.P)
		}
		eqWords(t, d.String()+" z = op(a, b)", z, want)
	}
}

// TestPlainTakeOfSharedEntry pins how a plain FixedB take treats a
// shared-mask entry: it stays legal and hands out the predecessor's a with
// the entry's z — consistent material, z0 + z1 = op(a, b) — so a caller
// that replays a traced tape's linear demands one op at a time still
// computes correct products. A shared take of a fresh-mask entry is
// refused: that entry's z is for an a the caller does not hold.
func TestPlainTakeOfSharedEntry(t *testing.T) {
	const seed = 9
	tape := sharedTape()[:2]
	s0, s1, err := BuildPair(tape, rng.New(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{s0, s1} {
		d := tape[0]
		if _, _, err := s.TakeConvFixedB(d.Mask, d.Conv); err != nil {
			t.Fatal(err)
		}
	}
	d := tape[1]
	a0, z0, err := s0.TakeConvFixedB(d.Mask, d.Conv)
	if err != nil {
		t.Fatalf("plain take of a shared-mask entry: %v", err)
	}
	a1, z1, err := s1.TakeConvFixedB(d.Mask, d.Conv)
	if err != nil {
		t.Fatalf("plain take of a shared-mask entry: %v", err)
	}
	if a0 != nil {
		t.Fatalf("party 0 holds %d activation-mask words, want none", len(a0))
	}
	eqWords(t, "a of the shared entry", a1, s1.entries[0].a)
	want := make([]uint64, len(z0))
	kernel.Conv2D(want, a1, mpc.FixedMaskPlain(seed, d.Mask, d.Conv.KLen()), convShape(d.Conv))
	for i := range z0 {
		z0[i] += z1[i]
	}
	eqWords(t, "z0 + z1", z0, want)

	fresh, _, err := BuildPair(Tape{tape[0]}, rng.New(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fresh.TakeConvFixedBShared(tape[0].Mask, tape[0].Conv)
	if err == nil || !strings.Contains(err.Error(), "mask mismatch") || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("shared take of a fresh-mask entry must be refused with the regenerate hint, got: %v", err)
	}
}

// TestSharedMaskRejected covers a shared-mask demand without a sound
// predecessor on every path: the store builder, the live dealer, and the
// decoder behind a valid checksum, which sees the flag set on an entry
// of an otherwise valid file.
func TestSharedMaskRejected(t *testing.T) {
	body := Demand{Kind: KindConvFixedB, Mask: 0, Conv: sharedBodyDims}
	wide := body
	wide.Mask, wide.Conv.H, wide.Conv.W = 4, 8, 8
	cases := []struct {
		name string
		tape Tape // the entry to flag is the last
		want string
	}{
		{"first", Tape{body}, "no fixed-b demand right before it"},
		{"after-bits", Tape{{Kind: KindBits, N: 5}, body}, "no fixed-b demand right before it"},
		{"length", Tape{body, wide}, "masks a 384-word input, but the demand before it"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			flagged := append(Tape(nil), c.tape...)
			flagged[len(flagged)-1].Shared = true
			if _, _, err := BuildPair(flagged, rng.New(1), 1); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("BuildPair: want %q, got: %v", c.want, err)
			}
			d := mpc.NewDealer(1, 1)
			var err error
			for _, dem := range flagged {
				if _, _, _, err = take(d, dem); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), "shared-mask deal") {
				t.Fatalf("dealer: want a shared-mask deal error, got: %v", err)
			}
			for party := 0; party < 2; party++ {
				s, err := buildSeeded(c.tape, party, 1)
				if err != nil {
					t.Fatal(err)
				}
				enc := s.Encode()
				flagSharedKind(enc, c.tape, len(c.tape)-1)
				reseal(enc)
				if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("party %d decode: want %q, got: %v", party, c.want, err)
				}
			}
		})
	}
}

// flagSharedKind sets the shared-mask bit on entry i's kind byte of an
// encoded store of tape.
func flagSharedKind(enc []byte, tape Tape, i int) {
	off := len(storeMagic) + headerLen
	for _, d := range tape[:i] {
		off += 1 + 4*len(d.dimFields())
	}
	enc[off] |= sharedKindBit
}

// TestSharedFlagOnlyOnFixedB: a shared flag on any other kind is a
// malformed tape for the builder, and an unknown kind byte for the
// decoder.
func TestSharedFlagOnlyOnFixedB(t *testing.T) {
	_, _, err := BuildPair(Tape{{Kind: KindSquare, N: 3, Shared: true}}, rng.New(1), 1)
	if err == nil || !strings.Contains(err.Error(), "marked shared-mask") {
		t.Fatalf("BuildPair: shared square must be refused, got: %v", err)
	}
	tape := Tape{{Kind: KindSquare, N: 3}}
	s, err := buildSeeded(tape, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	flagSharedKind(enc, tape, 0)
	reseal(enc)
	if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "unknown correlation kind 130") {
		t.Fatalf("decode: a flagged square kind byte must be unknown, got: %v", err)
	}
}
