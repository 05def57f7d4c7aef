package corr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"pasnet/internal/mpc"
)

// On-disk store format (all integers little-endian):
//
//	magic   8 bytes  "PASCORRA"
//	body:
//	  party   uint8
//	  label   uint32                      preprocess-run stamp (see Label)
//	  seed    uint64                      the party's mpc.Stream sub-stream
//	                                      seed
//	  count   uint32                      demand tape length
//	  tape, per entry:
//	    kind  uint8                       the Kind, with the top bit
//	                                      (0x80) set on a shared-mask
//	                                      FixedB demand (Demand.Shared)
//	    dims  kind-dependent uint32s      (n) | (m,k,p) | 10 conv fields |
//	                                      (mask,m,k,p) | mask + 10 conv
//	  z section (party 1's file only):    every entry's z half in tape
//	                                      order, uint64 words, counts
//	                                      derived from the dims (bit
//	                                      triples: ceil(n/64) words, bits
//	                                      past n zero)
//	trailer  uint32  CRC-32 (IEEE) of the body
//
// Every other half is a sub-stream's output (see mpc.Stream), so the
// decoder regenerates it from the seed through an mpc half stream — the
// same per-kind draws that dealt it — and a file is its header, its tape
// and, for party 1, the z halves: a third (selector triples) to a sixth
// of the materialised store. The decoded Store is fully materialised, as it always was.
//
// The trailer means a flipped byte or a truncated download fails loudly at
// load time instead of desyncing the two parties mid-protocol. The whole
// tape is read and validated — every geometry against the generator's
// caps, the store's total words against maxStoreWords, the z section's
// length against the tape — before anything is allocated, so a hostile
// file cannot demand a pathological allocation.
//
// Version history: "PASCORR1" lacked the fixed weight-mask kinds
// (KindMatMulFixedB / KindConvFixedB) and their mask-slot dim; "PASCORR2"
// stored bit triples one byte per bit and was dealt for the OT-leaf
// comparison's demand tape; "PASCORR3" stored every half of both parties,
// interleaved with the tape, and was dealt in the single-stream draw order
// (plain a and b first, then party 0's halves); "PASCORR4" dealt the FixedB
// kinds' activation mask as two halves, one off each party's sub-stream,
// where "PASCORR5" draws it wholly off party 1's, so the same seed
// regenerates different FixedB halves (and moves every party-0 half drawn
// after the first FixedB one); "PASCORR5" dealt bit and Hadamard triples
// symmetrically (a and b halves on both sub-streams), where "PASCORR6"
// deals them owner-split (a off party 1's, b and z0 off party 0's), so the
// same seed regenerates different halves for them and everything after;
// "PASCORR6" was dealt for the six-hop comparison's bit demands (a leaf
// and four binary tree levels), where "PASCORR7" stores the four-hop
// one's (a leaf, a fan-in-4 level and a root), so its tape no longer
// matches what a ReLU takes; "PASCORR7" was dealt for a model whose every
// ReLU compares 63 bits, where "PASCORR8" stores the 21-bit comparison's
// demands (a 147-product leaf and a 30-product root per element) for each
// ReLU layer whose recorded input bound allows it; "PASCORR8" dealt the
// Hadamard kind as an elementwise ring triple of the select's 2n words,
// where "PASCORR9" deals it as the selector triple (n packed bits and n
// words per operand, the same 2n-word z) for n selects, so an old tape's
// Hadamard demands and every half dealt after them regenerate differently;
// "PASCORR9" dealt a fresh activation mask for every FixedB demand, where
// "PASCORRA" marks the second linear op on one input as a shared-mask
// demand that draws no a, so a downsampling residual's shortcut takes
// different halves and every party-1 half after it moves.
// The magic is the version gate — any
// "PASCORR"-prefixed file of another version is rejected with a
// regeneration hint rather than misparsed, in either direction (old binary
// × new store, new binary × old store).

// storeMagic identifies a serialized correlation store at this binary's
// format version.
const storeMagic = "PASCORRA"

// storeMagicPrefix identifies any version of the store format.
const storeMagicPrefix = "PASCORR"

// headerLen is the fixed part of the body: party, label, seed and count.
const headerLen = 1 + 4 + 8 + 4

// sharedKindBit marks a shared-mask demand in a tape entry's kind byte.
const sharedKindBit = 0x80

// wordBlock is the size of the blocks words are encoded and decoded in.
const wordBlock = 1 << 12

// Encode serializes the store (including its consumed entries; a decoded
// store always starts with its cursor rewound to the beginning).
func (s *Store) Encode() []byte {
	var buf bytes.Buffer
	s.encodeTo(&buf) // a bytes.Buffer does not fail
	return buf.Bytes()
}

// encodeTo streams the serialized store to w, so writing a store never
// holds a second copy of it.
func (s *Store) encodeTo(w io.Writer) error {
	if _, err := io.WriteString(w, storeMagic); err != nil {
		return err
	}
	sum := crc32.NewIEEE()
	// A bufio.Writer latches its first error and returns it from Flush.
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), 1<<16)
	blk := make([]byte, 0, wordBlock)
	blk = append(blk, byte(s.party))
	blk = binary.LittleEndian.AppendUint32(blk, s.label)
	blk = binary.LittleEndian.AppendUint64(blk, s.seed)
	blk = binary.LittleEndian.AppendUint32(blk, uint32(len(s.entries)))
	bw.Write(blk)
	for _, d := range s.tape {
		kind := byte(d.Kind)
		if d.Shared {
			kind |= sharedKindBit
		}
		blk = append(blk[:0], kind)
		for _, f := range d.dimFields() {
			blk = binary.LittleEndian.AppendUint32(blk, uint32(*f))
		}
		bw.Write(blk)
	}
	if s.party == 1 {
		for i := range s.entries {
			writeWords(bw, blk, s.entries[i].z)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(blk[:0], sum.Sum32()))
	return err
}

// dimFields lists the demand's geometry fields, by kind, in their on-disk
// order: the encoder reads them, the decoder fills them.
func (d *Demand) dimFields() []*int {
	c := &d.Conv
	switch d.Kind {
	case KindMatMul:
		return []*int{&d.M, &d.K, &d.P}
	case KindMatMulFixedB:
		return []*int{&d.Mask, &d.M, &d.K, &d.P}
	case KindConv:
		return []*int{&c.N, &c.InC, &c.H, &c.W, &c.OutC, &c.KH, &c.KW, &c.Stride, &c.Pad, &c.Groups}
	case KindConvFixedB:
		return []*int{&d.Mask, &c.N, &c.InC, &c.H, &c.W, &c.OutC, &c.KH, &c.KW, &c.Stride, &c.Pad, &c.Groups}
	default:
		return []*int{&d.N}
	}
}

// Decode parses a serialized store, verifying the checksum before any
// structural parsing and every geometry before any allocation.
func Decode(data []byte) (*Store, error) {
	return decode(bytes.NewReader(data), int64(len(data)), maxStoreWords)
}

// decode reads a size-byte serialized store from src in two passes — the
// body through the checksum, then, rewound, through the parser — so a
// store file is loaded without ever being held whole next to its decoded
// halves. A store whose tape needs more than maxWords words is refused
// before anything is allocated.
func decode(src io.ReadSeeker, size int64, maxWords int64) (*Store, error) {
	if size < int64(len(storeMagic)+headerLen+4) {
		return nil, fmt.Errorf("corr: store file truncated: %d bytes is shorter than the fixed header", size)
	}
	var magic [len(storeMagic)]byte
	if _, err := io.ReadFull(src, magic[:]); err != nil {
		return nil, fmt.Errorf("corr: read store: %w", err)
	}
	if string(magic[:]) != storeMagic {
		if string(magic[:len(storeMagicPrefix)]) == storeMagicPrefix {
			return nil, fmt.Errorf("corr: store file is format version %q but this binary reads %q — regenerate the store with this binary's preprocess step",
				string(magic[:]), storeMagic)
		}
		return nil, fmt.Errorf("corr: not a correlation store file (bad magic)")
	}
	bodyLen := size - int64(len(storeMagic)) - 4
	sum := crc32.NewIEEE()
	if _, err := io.CopyN(sum, src, bodyLen); err != nil {
		return nil, fmt.Errorf("corr: read store: %w", err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(src, trailer[:]); err != nil {
		return nil, fmt.Errorf("corr: read store: %w", err)
	}
	if got, wantCRC := sum.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != wantCRC {
		return nil, fmt.Errorf("corr: store file checksum mismatch (corrupt or truncated): got %08x, recorded %08x", got, wantCRC)
	}
	if _, err := src.Seek(int64(len(storeMagic)), io.SeekStart); err != nil {
		return nil, fmt.Errorf("corr: read store: %w", err)
	}
	r := &byteReader{src: bufio.NewReaderSize(src, 1<<16), left: bodyLen}
	party := int(r.u8())
	if party != 0 && party != 1 {
		return nil, fmt.Errorf("corr: store file names party %d (want 0 or 1)", party)
	}
	label := r.u32()
	seed := r.u64()
	count := int(r.u32())
	// The tape bounds the entry table: every entry is at least a kind byte
	// and a dim word, and an absolute ceiling far above any real tape
	// bounds the bookkeeping overhead. The table grows by append, so memory
	// tracks the bytes the file actually contains rather than what its
	// header promises.
	const maxStoreEntries = 1 << 20
	if count > maxStoreEntries || int64(count) > r.left/5 {
		return nil, fmt.Errorf("corr: store file declares %d correlations against %d body bytes (cap %d)", count, r.left, maxStoreEntries)
	}
	tape := make(Tape, 0, min(count, 4096))
	var words, zWords int64
	var prev Demand
	for i := 0; i < count; i++ {
		d := Demand{Kind: Kind(r.u8())}
		if k := d.Kind &^ sharedKindBit; d.Kind != k && (k == KindMatMulFixedB || k == KindConvFixedB) {
			// Any other kind byte with the top bit set stays an unknown kind.
			d = Demand{Kind: k, Shared: true}
		}
		for _, f := range d.dimFields() {
			*f = int(r.u32())
		}
		if r.err != nil {
			return nil, fmt.Errorf("corr: store file truncated in entry %d header: %w", i, r.err)
		}
		if err := d.validate(); err != nil {
			return nil, fmt.Errorf("corr: store file entry %d: %w", i, err)
		}
		if err := d.validateShared(prev, i == 0); err != nil {
			return nil, fmt.Errorf("corr: store file entry %d: %w", i, err)
		}
		la, lb, lz := d.lens(party)
		words += int64(la + lb + lz)
		if words > maxWords {
			return nil, fmt.Errorf("corr: store file's tape needs %d words by entry %d (%s), over the %d-word store cap", words, i, d, maxWords)
		}
		if party == 1 {
			zWords += int64(lz)
		}
		tape = append(tape, d)
		prev = d
	}
	if r.left < 8*zWords {
		return nil, fmt.Errorf("corr: store file truncated: the tape's z halves need %d bytes, %d left", 8*zWords, r.left)
	}
	if r.left > 8*zWords {
		return nil, fmt.Errorf("corr: store file has %d trailing bytes after the last entry", r.left-8*zWords)
	}
	s := &Store{party: party, label: label, seed: seed, tape: tape, entries: make([]entry, len(tape))}
	half := mpc.NewHalfStream(party, seed)
	for i, d := range tape {
		t, err := d.deal(half)
		if err != nil {
			return nil, fmt.Errorf("corr: store file entry %d (%s): %w", i, d, err)
		}
		if party == 0 {
			s.entries[i] = entry{a: t.A0, b: t.B0, z: t.Z0}
			continue
		}
		_, _, lz := d.lens(party)
		z := r.words(lz)
		if r.err != nil {
			return nil, fmt.Errorf("corr: store file truncated in entry %d (%s) z half: %w", i, d, r.err)
		}
		if tail := uint(d.N) & 63; d.Kind == KindBits && tail != 0 && z[lz-1]>>tail != 0 {
			// Canonical form: a file that decodes re-encodes to itself.
			return nil, fmt.Errorf("corr: store file entry %d (%s) has bits set past its last triple", i, d)
		}
		s.entries[i] = entry{a: t.A1, b: t.B1, z: z}
	}
	return s, nil
}

// WriteFile atomically-ish writes the encoded store (temp file + rename
// would need a directory walk; a short-lived partial file is acceptable
// because the checksum rejects it at load time).
func (s *Store) WriteFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := s.encodeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads and decodes a store file.
func ReadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corr: read store: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("corr: read store: %w", err)
	}
	s, err := decode(f, st.Size(), maxStoreWords)
	if err != nil {
		return nil, fmt.Errorf("corr: %s: %w", path, err)
	}
	return s, nil
}

// FileName is the canonical store file name for one party and one input
// geometry, e.g. "corr_p1_n4x3x16x16.pcs" — the contract between the
// `pasnet-server -party preprocess` writer and the serve-time loader.
func FileName(party int, shape []int) string {
	dims := make([]string, len(shape))
	for i, d := range shape {
		dims[i] = fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("corr_p%d_n%s.pcs", party, strings.Join(dims, "x"))
}

// writeWords encodes ws into w in wordBlock-byte blocks, staged in blk.
func writeWords(w io.Writer, blk []byte, ws []uint64) {
	for len(ws) > 0 {
		n := min(len(ws), wordBlock/8)
		blk = blk[:0]
		for _, v := range ws[:n] {
			blk = binary.LittleEndian.AppendUint64(blk, v)
		}
		w.Write(blk)
		ws = ws[n:]
	}
}

// byteReader is a bounds-checked cursor over the store body; the first
// shortfall latches err and zero-fills every later read.
type byteReader struct {
	src  io.Reader
	left int64 // body bytes not yet consumed
	err  error
	buf  [wordBlock]byte
}

// take reads the next n <= len(r.buf) bytes; the result is valid until
// the next call.
func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.left < int64(n) {
		r.err = fmt.Errorf("need %d bytes, %d left", n, r.left)
		return nil
	}
	if _, err := io.ReadFull(r.src, r.buf[:n]); err != nil {
		r.err = err
		return nil
	}
	r.left -= int64(n)
	return r.buf[:n]
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *byteReader) words(n int) []uint64 {
	if r.err == nil && r.left < 8*int64(n) {
		r.err = fmt.Errorf("need %d bytes, %d left", 8*int64(n), r.left)
	}
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := 0; i < n; {
		m := min(n-i, len(r.buf)/8)
		b := r.take(8 * m)
		if b == nil {
			return nil
		}
		for j := range m {
			out[i+j] = binary.LittleEndian.Uint64(b[8*j:])
		}
		i += m
	}
	return out
}
