package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
)

// readSizes is a reader that records the largest buffer it was asked to
// fill: the frame decoder reads its payload in one io.ReadFull into a
// buffer of the payload's size, so that is the largest payload allocation
// a frame cost.
type readSizes struct {
	r   io.Reader
	max int
}

func (s *readSizes) Read(p []byte) (int, error) {
	s.max = max(s.max, len(p))
	return s.r.Read(p)
}

// captureConn is a net.Conn whose writes land in a buffer, so a TCPConn
// can re-encode a frame without a peer.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// FuzzReadFrame feeds the TCP frame decoder arbitrary bytes under an
// arbitrary expected kind and element bound. Invariants: no panic; no
// payload buffer beyond the declared kind's limit or, for a bounded
// uint64 receive, beyond maxElems words — the header is refused before
// any allocation, as TestHostileHeaderRejectedBeforeAllocation pins for
// one case; every refused frame fails with a descriptive transport error
// (short input surfaces as io.EOF or io.ErrUnexpectedEOF); and an
// accepted frame is one the caller asked for, decodes through the typed
// receive without panicking, and re-encodes to exactly the bytes read.
func FuzzReadFrame(f *testing.F) {
	for _, g := range goldenFrames {
		f.Add(g.wire, g.wire[0], -1)
		f.Add(g.wire, KindReply, 4)
		f.Add(g.wire, KindUint64s, 1)
		f.Add(g.wire[:len(g.wire)-1], g.wire[0], -1)
	}
	f.Add([]byte{'U', 0, 0, 0, 0x40}, KindUint64s, 768)
	f.Add([]byte{'U', 0, 0, 0, 0x40}, KindReply, 768)
	f.Add([]byte{'e', 0xff, 0xff, 0xff, 0xff}, KindReply, 4)
	f.Add([]byte{'s', 0xff, 0, 0, 0}, KindShape, -1)
	f.Add(append([]byte{'U', 12, 0, 0, 0}, make([]byte, 12)...), KindUint64s, 4)
	f.Add(append([]byte{'u', 6, 0, 0, 0}, make([]byte, 6)...), KindUints, -1)
	f.Add(append([]byte{'m', 2, 0, 0, 0}, 9, 'x'), KindModelShape, -1)
	f.Add([]byte{'x', 1, 0, 0, 0, 0}, byte('x'), -1)
	f.Add([]byte{'r', 0, 0, 0, 0}, KindReply, 4)

	f.Fuzz(func(t *testing.T, data []byte, want byte, maxElems int) {
		r := &readSizes{r: bytes.NewReader(data)}
		fr, err := readFrame(r, make([]byte, 5), want, maxElems)
		if len(data) >= 5 {
			kind := data[0]
			limit := kindLimit(kind)
			if kind == KindUint64s && maxElems >= 0 && maxElems < 1<<60 {
				limit = min(limit, 8*uint64(maxElems))
			}
			if uint64(r.max) > max(limit, 5) {
				t.Fatalf("kind %q frame under want %q, maxElems %d: read a %d-byte payload, limit %d", kind, want, maxElems, r.max, limit)
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !strings.HasPrefix(err.Error(), "transport: ") {
				t.Fatalf("undescriptive error: %v", err)
			}
			return
		}
		if fr.Kind != want && (want != KindReply || (fr.Kind != KindUint64s && fr.Kind != KindError)) {
			t.Fatalf("want %q accepted a %q frame", want, fr.Kind)
		}
		if !slices.Contains(Kinds[:], fr.Kind) {
			t.Fatalf("accepted a %q frame, which is not a wire kind", fr.Kind)
		}
		if fr.Kind == KindUint64s && maxElems >= 0 && len(fr.U64) > maxElems {
			t.Fatalf("accepted %d words over a bound of %d", len(fr.U64), maxElems)
		}
		var decErr error
		switch fr.Kind {
		case KindShape:
			_, decErr = decodeShape(fr.Raw)
		case KindModelShape:
			_, _, decErr = decodeModelShape(fr.Raw)
		}
		if decErr != nil && !strings.HasPrefix(decErr.Error(), "transport: ") {
			t.Fatalf("undescriptive decode error: %v", decErr)
		}
		nc := &captureConn{}
		if err := NewTCPConn(nc).WriteFrame(fr); err != nil {
			t.Fatal(err)
		}
		if n := 5 + fr.Len(); !bytes.Equal(nc.buf.Bytes(), data[:n]) {
			t.Fatalf("accepted frame re-encodes to %x, read %x", nc.buf.Bytes(), data[:n])
		}
	})
}
