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
)

// On-disk store format (all integers little-endian):
//
//	magic   8 bytes  "PASCORR3"
//	body:
//	  party   uint8
//	  label   uint32                      preprocess-run stamp (see Label)
//	  count   uint32                      demand tape length
//	  per entry:
//	    kind  uint8
//	    dims  kind-dependent uint32s      (n) | (m,k,p) | 10 conv fields |
//	                                      (mask,m,k,p) | mask + 10 conv
//	    payload                           uint64 words, counts derived
//	                                      from the dims (bit triples: three
//	                                      sections of ceil(n/64) words,
//	                                      bits past n zero)
//	trailer  uint32  CRC-32 (IEEE) of the body
//
// The trailer means a flipped byte or a truncated download fails loudly at
// load time instead of desyncing the two parties mid-protocol; the dims
// are validated against the same caps as the generator before any payload
// allocation, so a hostile file cannot demand a pathological allocation.
//
// Version history: "PASCORR1" lacked the fixed weight-mask kinds
// (KindMatMulFixedB / KindConvFixedB) and their mask-slot dim; "PASCORR2"
// stored bit triples one byte per bit and was dealt for the OT-leaf
// comparison's demand tape. The magic is the version gate — any
// "PASCORR"-prefixed file of another version is rejected with a
// regeneration hint rather than misparsed, in either direction (old binary
// × new store, new binary × old store).

// storeMagic identifies a serialized correlation store at this binary's
// format version.
const storeMagic = "PASCORR3"

// storeMagicPrefix identifies any version of the store format.
const storeMagicPrefix = "PASCORR"

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
	hdr := append(make([]byte, 0, 64), byte(s.party))
	hdr = binary.LittleEndian.AppendUint32(hdr, s.label)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.entries)))
	bw.Write(hdr)
	for i := range s.entries {
		d := s.tape[i]
		e := &s.entries[i]
		hdr = append(hdr[:0], byte(d.Kind))
		switch d.Kind {
		case KindMatMul:
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.M))
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.K))
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.P))
		case KindMatMulFixedB:
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.Mask))
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.M))
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.K))
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.P))
		case KindConv, KindConvFixedB:
			if d.Kind == KindConvFixedB {
				hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.Mask))
			}
			c := d.Conv
			for _, v := range []int{c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups} {
				hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v))
			}
		default:
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.N))
		}
		bw.Write(hdr)
		writeWords(bw, e.a)
		writeWords(bw, e.b) // empty for square pairs
		writeWords(bw, e.z)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(hdr[:0], sum.Sum32()))
	return err
}

// Decode parses a serialized store, verifying the checksum before any
// structural parsing and every geometry before any payload allocation.
func Decode(data []byte) (*Store, error) {
	return decode(bytes.NewReader(data), int64(len(data)))
}

// decode reads a size-byte serialized store from src in two passes — the
// body through the checksum, then, rewound, through the parser — so a
// store file is loaded without ever being held whole next to its decoded
// payload.
func decode(src io.ReadSeeker, size int64) (*Store, error) {
	if size < int64(len(storeMagic)+1+4+4+4) {
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
	count := int(r.u32())
	// Two caps keep a hostile declared count from demanding pathological
	// allocations: the remaining body bounds the entry table (every entry
	// carries at least a kind byte, a dim word and — since validate
	// rejects empty demands — real payload), and an absolute ceiling far
	// above any real tape bounds the per-entry bookkeeping overhead. The
	// entry table itself grows by append, so memory tracks the bytes the
	// file actually contains rather than what its header promises.
	const maxStoreEntries = 1 << 20
	if count > maxStoreEntries || int64(count) > r.left/8 {
		return nil, fmt.Errorf("corr: store file declares %d correlations against %d body bytes (cap %d)", count, r.left, maxStoreEntries)
	}
	growCap := count
	if growCap > 4096 {
		growCap = 4096
	}
	s := &Store{party: party, label: label, tape: make(Tape, 0, growCap), entries: make([]entry, 0, growCap)}
	for i := 0; i < count; i++ {
		d := Demand{Kind: Kind(r.u8())}
		switch d.Kind {
		case KindMatMul:
			d.M, d.K, d.P = int(r.u32()), int(r.u32()), int(r.u32())
		case KindMatMulFixedB:
			d.Mask = int(r.u32())
			d.M, d.K, d.P = int(r.u32()), int(r.u32()), int(r.u32())
		case KindConv, KindConvFixedB:
			if d.Kind == KindConvFixedB {
				d.Mask = int(r.u32())
			}
			c := &d.Conv
			for _, f := range []*int{&c.N, &c.InC, &c.H, &c.W, &c.OutC, &c.KH, &c.KW, &c.Stride, &c.Pad, &c.Groups} {
				*f = int(r.u32())
			}
		default:
			d.N = int(r.u32())
		}
		if r.err != nil {
			return nil, fmt.Errorf("corr: store file truncated in entry %d header: %w", i, r.err)
		}
		if err := d.validate(); err != nil {
			return nil, fmt.Errorf("corr: store file entry %d: %w", i, err)
		}
		la, lb, lz := d.lens()
		e := entry{a: r.words(la), b: r.words(lb), z: r.words(lz)}
		if r.err != nil {
			return nil, fmt.Errorf("corr: store file truncated in entry %d (%s) payload: %w", i, d, r.err)
		}
		if tail := uint(d.N) & 63; d.Kind == KindBits && tail != 0 {
			// Canonical form: a file that decodes re-encodes to itself.
			if (e.a[la-1]|e.b[la-1]|e.z[la-1])>>tail != 0 {
				return nil, fmt.Errorf("corr: store file entry %d (%s) has bits set past its last triple", i, d)
			}
		}
		s.entries = append(s.entries, e)
		s.tape = append(s.tape, d)
	}
	if r.left != 0 {
		return nil, fmt.Errorf("corr: store file has %d trailing bytes after the last entry", r.left)
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
	s, err := decode(f, st.Size())
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

func writeWords(bw *bufio.Writer, ws []uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		bw.Write(b[:])
	}
}

// byteReader is a bounds-checked cursor over the store body; the first
// shortfall latches err and zero-fills every later read.
type byteReader struct {
	src  io.Reader
	left int64 // body bytes not yet consumed
	err  error
	buf  [1 << 12]byte
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
