package corr

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzWords caps what one fuzzed store may decode to. A party-0 file is a
// header and a tape, so a few mutated dim bytes can declare a store the
// size of the production cap; the cap check runs before any allocation
// either way, so a smaller one reaches the same parser paths.
const fuzzWords = 1 << 16

// FuzzDecode feeds the .pcs decoder mutated store files. Each input is
// decoded as given and again with its CRC trailer re-stamped, so mutations
// reach the tape and z-section parser behind the checksum. Invariants: no
// panic, and an accepted file is canonical — it re-encodes to its own
// bytes, and the re-encoding decodes to the same header and tape.
func FuzzDecode(f *testing.F) {
	for party := 0; party < 2; party++ {
		s, err := buildSeeded(testTape(), party, 11)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
	}
	// The shapes TestDecodeRejectsDamage patches: an empty tape (its count
	// field), a lone hadamard (its n field), a bit triple with a tail word
	// in party 1's z section, and a tape of large squares whose entry
	// count is honest or lies.
	for _, c := range []struct {
		tape  Tape
		party int
	}{
		{Tape{}, 0},
		{Tape{{Kind: KindHadamard, N: 4}}, 0},
		{Tape{{Kind: KindBits, N: 70}}, 1},
	} {
		s, err := buildSeeded(c.tape, c.party, 7)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
	}
	// Shared-mask demands: a valid tape of them for each party, and files
	// whose flag sits on an entry with no FixedB predecessor or one of
	// another input length, the two shapes the decoder refuses.
	body := Demand{Kind: KindConvFixedB, Conv: sharedBodyDims}
	wide := body
	wide.Mask, wide.Conv.H = 1, 8
	for party := 0; party < 2; party++ {
		s, err := buildSeeded(sharedTape(), party, 13)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
		for _, tape := range []Tape{{{Kind: KindBits, N: 5}, body}, {body, wide}} {
			s, err := buildSeeded(tape, party, 13)
			if err != nil {
				f.Fatal(err)
			}
			enc := s.Encode()
			flagSharedKind(enc, tape, 1)
			reseal(enc)
			f.Add(enc)
		}
	}
	huge := make(Tape, 18)
	for i := range huge {
		huge[i] = Demand{Kind: KindSquare, N: maxEntryWords / 2}
	}
	honest := (&Store{party: 0, tape: huge, entries: make([]entry, len(huge))}).Encode()
	lying := append([]byte(nil), honest...)
	binary.LittleEndian.PutUint32(lying[len(storeMagic)+headerLen-4:], 1024)
	reseal(lying)
	f.Add(honest)
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= len(storeMagic)+4 {
			sealed := append([]byte(nil), data...)
			reseal(sealed)
			checkDecode(t, sealed)
		}
	})
}

// checkDecode decodes data under the fuzz word cap and, when it is
// accepted, checks the canonical round trip.
func checkDecode(t *testing.T, data []byte) {
	s, err := decode(bytes.NewReader(data), int64(len(data)), fuzzWords)
	if err != nil {
		return
	}
	enc := s.Encode()
	if !bytes.Equal(enc, data) {
		t.Fatalf("accepted file re-encodes to different bytes:\n in  %x\n out %x", data, enc)
	}
	again, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoding does not decode: %v", err)
	}
	if again.party != s.party || again.label != s.label || again.seed != s.seed || !again.tape.Equal(s.tape) {
		t.Fatalf("re-encoding decodes to another store: party %d/%d label %08x/%08x seed %x/%x tape %v/%v",
			again.party, s.party, again.label, s.label, again.seed, s.seed, again.tape, s.tape)
	}
}
