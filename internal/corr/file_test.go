package corr

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestStoreFileRoundTrip writes a store to disk, reads it back, and
// replays both against the same live dealer stream: write → read → replay
// must be lossless for every correlation kind.
func TestStoreFileRoundTrip(t *testing.T) {
	tape := testTape()
	path := filepath.Join(t.TempDir(), FileName(1, []int{2, 3, 6, 6}))
	s, err := BuildSeeded(tape, 1, 321)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLabel(0xfeedbeef)
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Party() != 1 || loaded.Len() != len(tape) || !loaded.Tape().Equal(tape) {
		t.Fatalf("loaded store header: party=%d len=%d", loaded.Party(), loaded.Len())
	}
	if loaded.Label() != 0xfeedbeef {
		t.Fatalf("label not preserved: %08x", loaded.Label())
	}
	drainAgainstDealer(t, loaded, 321, tape)
}

// TestDecodeRejectsDamage covers the decoder's corrupt/truncated-file
// rejection cases: bit flips anywhere, truncation at several depths, bad
// magic, trailing garbage, and a hostile declared geometry.
func TestDecodeRejectsDamage(t *testing.T) {
	tape := testTape()
	s, err := BuildSeeded(tape, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	good := s.Encode()
	if _, err := Decode(good); err != nil {
		t.Fatalf("pristine encoding must decode: %v", err)
	}

	t.Run("bit-flips", func(t *testing.T) {
		// A flip at any depth — header, dims, payload, checksum — must be
		// rejected by the CRC before structural parsing trusts anything.
		for _, off := range []int{len(storeMagic), len(storeMagic) + 3, len(good) / 2, len(good) - 2} {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			if _, err := Decode(bad); err == nil {
				t.Fatalf("flip at %d must not decode", off)
			} else if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("flip at %d: want checksum error, got %v", off, err)
			}
		}
	})

	t.Run("magic-flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0x01
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad magic: %v", err)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		for _, keep := range []int{0, 4, len(storeMagic) + 2, len(good) / 3, len(good) - 1} {
			if _, err := Decode(good[:keep]); err == nil {
				t.Fatalf("truncation to %d bytes must not decode", keep)
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0xde, 0xad)
		if _, err := Decode(bad); err == nil {
			t.Fatal("trailing bytes must not decode")
		}
	})

	t.Run("hostile-count", func(t *testing.T) {
		// A tiny file declaring a huge entry table (with a valid
		// checksum, which any attacker can compute) must be rejected by
		// the remaining-bytes bound before the entry table allocates.
		tiny, err := BuildSeeded(Tape{}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		enc := tiny.Encode()
		off := len(storeMagic) + 1 + 4 // count field
		enc[off] = 0xff
		enc[off+1] = 0xff
		enc[off+2] = 0xff
		enc[off+3] = 0x00 // 16M entries in a ~20-byte file
		reseal(enc)
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "body bytes") {
			t.Fatalf("hostile count: %v", err)
		}
	})

	t.Run("bit-section-length", func(t *testing.T) {
		// A bit-triple entry's payload is three sections of ceil(n/64)
		// words. Any other length behind a valid checksum — a word short, a
		// word long, or PASCORR2's byte-per-bit sections — must not decode.
		bits, err := BuildSeeded(Tape{{Kind: KindBits, N: 70}}, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		enc := bits.Encode()
		head := len(storeMagic) + 1 + 4 + 4 + 1 + 4 // through the entry's n
		if len(enc) != head+3*2*8+4 {
			t.Fatalf("70 bit triples encode to %d bytes, want %d (three 2-word sections)", len(enc), head+3*2*8+4)
		}
		for _, payload := range []int{3*2*8 - 8, 3*2*8 + 8, 3 * 70} {
			bad := append(append([]byte(nil), enc[:head]...), make([]byte, payload+4)...)
			reseal(bad)
			if _, err := Decode(bad); err == nil {
				t.Fatalf("%d-byte bit payload for n=70 must not decode", payload)
			} else if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "trailing") {
				t.Fatalf("%d-byte bit payload: want a length error, got %v", payload, err)
			}
		}
	})

	t.Run("bit-tail-set", func(t *testing.T) {
		// Canonical bytes: a set bit past the last triple (here bit 6 of
		// the second word of the b section, n = 70) is rejected even with a
		// valid checksum, so one store has one encoding.
		bits, err := BuildSeeded(Tape{{Kind: KindBits, N: 70}}, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		enc := bits.Encode()
		head := len(storeMagic) + 1 + 4 + 4 + 1 + 4
		enc[head+2*8+8] |= 0x40
		reseal(enc)
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "past its last triple") {
			t.Fatalf("tail bit: %v", err)
		}
	})

	t.Run("hostile-geometry", func(t *testing.T) {
		// Re-checksum a body whose first entry declares an absurd element
		// count: the size cap must reject it before any allocation.
		huge, err := BuildSeeded(Tape{{Kind: KindHadamard, N: 4}}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		enc := huge.Encode()
		// Patch the n field (magic + party + label + count + kind) to
		// maxEntryWords+1.
		off := len(storeMagic) + 1 + 4 + 4 + 1
		enc[off] = 0x01
		enc[off+1] = 0x00
		enc[off+2] = 0x00
		enc[off+3] = 0x10 // 0x10000001 = 1<<28 + 1
		reseal(enc)
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("hostile geometry: %v", err)
		}
	})
}

// reseal recomputes the CRC trailer after a deliberate body patch, so the
// test reaches the structural validators behind the checksum.
func reseal(enc []byte) {
	body := enc[len(storeMagic) : len(enc)-4]
	crc := crc32.ChecksumIEEE(body)
	enc[len(enc)-4] = byte(crc)
	enc[len(enc)-3] = byte(crc >> 8)
	enc[len(enc)-2] = byte(crc >> 16)
	enc[len(enc)-1] = byte(crc >> 24)
}

// TestStoreFileStreams pins the file path to the in-memory codec — the
// bytes WriteFile leaves on disk are Encode's, and ReadFile rejects what
// Decode rejects — and checks neither direction stages the whole file in
// memory: a store-fed server that loads a file through a same-size
// transient starts serving with the collector's goal at twice that peak.
func TestStoreFileStreams(t *testing.T) {
	tape := Tape{{Kind: KindSquare, N: 1 << 16}, {Kind: KindHadamard, N: 1 << 15}}.Repeat(4)
	s, err := BuildSeeded(tape, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	path := filepath.Join(t.TempDir(), "s.pcs")
	allocated := func(f func()) int {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return int(m1.TotalAlloc - m0.TotalAlloc)
	}
	if n := allocated(func() { err = s.WriteFile(path) }); err != nil || n > len(enc)/8 {
		t.Fatalf("WriteFile: err %v, allocated %d bytes writing a %d-byte store", err, n, len(enc))
	}
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, enc) {
		t.Fatalf("file differs from Encode (read err %v)", err)
	}
	var loaded *Store
	if n := allocated(func() { loaded, err = ReadFile(path) }); err != nil || n > len(enc)*5/4 {
		t.Fatalf("ReadFile: err %v, allocated %d bytes loading a %d-byte store", err, n, len(enc))
	}
	if !bytes.Equal(loaded.Encode(), enc) {
		t.Fatal("a loaded store must re-encode to the file it came from")
	}
	enc[len(enc)/2] ^= 1
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("a flipped payload bit must fail the checksum, got %v", err)
	}
}

// TestReadFileMissing checks the loader wraps filesystem errors.
func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.pcs")); err == nil {
		t.Fatal("missing file must error")
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want not-exist error, got %v", err)
	}
}

// TestFileName pins the writer/loader naming contract.
func TestFileName(t *testing.T) {
	if got := FileName(1, []int{4, 3, 16, 16}); got != "corr_p1_n4x3x16x16.pcs" {
		t.Fatalf("FileName = %q", got)
	}
}
