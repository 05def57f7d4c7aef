// Package transport provides the two-party message channel used by the 2PC
// protocols: an in-memory duplex pipe for single-process simulation and
// tests, and a TCP transport for genuine two-process deployment
// (cmd/pasnet-server).
//
// Everything rests on one frame primitive. A Frame is a kind byte plus a
// typed payload, and a Link moves frames: WriteFrame, ReadFrame, the two
// deadlines and Close. MemConn, TCPConn, DelayPipe's endpoints, FaultConn
// and obs.WireConn are links, each adding only its own logic at the frame.
// Conn, the typed API the protocols speak, is written once over any Link
// (NewConn); a decorator over a Conn it did not build reaches it through
// AsLink, which dispatches each frame to the Conn's own typed methods.
// Nothing here counts traffic: wrap an endpoint in obs.InstrumentConn for
// byte, frame and round totals.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"time"
)

// Conn is a reliable, ordered, message-framed duplex channel between the
// two computing parties: the typed API the protocols speak. Each typed
// method is one frame (NewConn is their only implementation); the
// deadlines and Close are the Link's.
type Conn interface {
	// SendUints transmits a framed slice of ring elements.
	SendUints(xs []uint32) error
	// RecvUints receives the next framed slice of ring elements.
	RecvUints() ([]uint32, error)
	// SendUint64s transmits a framed slice of 64-bit values (group elements).
	SendUint64s(xs []uint64) error
	// RecvUint64s receives the next framed slice of 64-bit values.
	RecvUint64s() ([]uint64, error)
	// RecvUint64sMax is RecvUint64s with a caller-supplied element bound
	// enforced before any payload allocation. Receivers that already know
	// the expected payload size (e.g. from a preceding shape control frame)
	// use it so a hostile length header cannot force a large transient
	// allocation; a frame over the bound is a protocol error.
	RecvUint64sMax(maxElems int) ([]uint64, error)
	// SendBytes transmits a framed byte slice.
	SendBytes(b []byte) error
	// RecvBytes receives the next framed byte slice.
	RecvBytes() ([]byte, error)
	// SendShape transmits a tensor-shape control frame. Shape frames use a
	// distinct frame kind so a control message can never be mistaken for
	// protocol data (a mismatch surfaces as a framing error instead of a
	// silent desync). An empty shape is legal and serves as an
	// end-of-session sentinel for batched serving loops.
	SendShape(shape []int) error
	// RecvShape receives the next shape control frame.
	RecvShape() ([]int, error)
	// SendModelShape transmits a query control frame: a model identifier
	// plus the query's tensor shape (frame kind 'm'). It is the multi-model
	// generalization of SendShape, used by gateway clients to name the
	// registered model a query targets. An empty model with an empty shape
	// is the end-of-stream sentinel.
	SendModelShape(model string, shape []int) error
	// RecvModelShape receives the next model+shape control frame.
	RecvModelShape() (string, []int, error)
	// SendError transmits a descriptive per-query failure frame (kind 'e')
	// so a serving loop can reject one bad query without dropping the
	// connection or leaving the peer to guess what went wrong.
	SendError(msg string) error
	// RecvReply receives the next reply frame: either a uint64 data frame
	// (bounded by maxElems like RecvUint64sMax) or an error frame, whose
	// message comes back as errMsg with a nil err.
	RecvReply(maxElems int) (vals []uint64, errMsg string, err error)
	// SetReadDeadline bounds every subsequent receive, with net.Conn
	// semantics: a receive that has not completed by t fails with an error
	// satisfying errors.Is(err, os.ErrDeadlineExceeded), and an
	// already-expired deadline fails receives immediately. The zero time
	// clears the deadline. Serving layers use it to bound each flush so a
	// stalled or half-dead peer poisons its pair instead of wedging a
	// worker goroutine forever.
	SetReadDeadline(t time.Time) error
	// SetWriteDeadline bounds every subsequent send, with the same
	// net.Conn semantics as SetReadDeadline. It closes the other half of
	// the stalled-peer problem: a peer that accepts the connection but
	// never reads eventually exerts backpressure (a full kernel socket
	// buffer, or a full in-memory pipe), and without a write deadline the
	// Exchange helpers wedge forever in their send goroutine even after
	// the receive side has timed out.
	SetWriteDeadline(t time.Time) error
	// Close releases the underlying resources.
	Close() error
}

// Frame kinds: the first byte of every TCP frame header.
const (
	KindUints      byte = 'u' // ring elements, 4 bytes each
	KindUint64s    byte = 'U' // 64-bit values, 8 bytes each
	KindBytes      byte = 'b' // an opaque byte slice
	KindShape      byte = 's' // a tensor-shape control frame
	KindModelShape byte = 'm' // a model identifier plus a shape
	KindError      byte = 'e' // a per-query failure message
	// KindReply is never on the wire: as ReadFrame's want it accepts a
	// KindUint64s frame (bounded by maxElems) or a KindError frame.
	KindReply byte = 'r'
)

// Kinds lists the six wire kinds in a fixed order; obs indexes its
// per-kind wire counters by it.
var Kinds = [...]byte{KindUints, KindUint64s, KindBytes, KindShape, KindModelShape, KindError}

// KindName is a frame kind's short name: its wire-counter label, and how
// framing errors name it.
func KindName(kind byte) string {
	switch kind {
	case KindUints:
		return "u32"
	case KindUint64s:
		return "u64"
	case KindBytes:
		return "bytes"
	case KindShape:
		return "shape"
	case KindModelShape:
		return "model"
	case KindError:
		return "err"
	case KindReply:
		return "reply"
	}
	return fmt.Sprintf("%q", kind)
}

// Frame is one message on a link: a kind and its payload in typed form,
// so MemConn carries it as is and never serializes. The payload field is
// fixed by the kind: U32 for KindUints, U64 for KindUint64s, Raw for the
// rest (a shape or model+shape frame's encoded control payload, an error
// frame's clamped message). TCPConn writes it as the 1-byte kind, a
// little-endian uint32 payload length, then the payload.
type Frame struct {
	Kind byte
	U32  []uint32
	U64  []uint64
	Raw  []byte
}

// Len is the frame's payload size on the wire, header excluded.
func (f Frame) Len() int { return 4*len(f.U32) + 8*len(f.U64) + len(f.Raw) }

// Link is the frame primitive under Conn. Decorators are links over an
// inner link and add their own logic at the frame: DelayPipe stamps and
// waits, FaultConn runs its fault plan before a read, obs.WireConn counts
// by kind.
type Link interface {
	// WriteFrame sends f. The caller may reuse f's payload afterwards.
	WriteFrame(f Frame) error
	// ReadFrame receives the next frame, which must be of kind want
	// (KindReply: a KindUint64s or a KindError frame). maxElems, when not
	// negative, bounds a KindUint64s frame's element count, checked before
	// any payload allocation like every other frame bound.
	ReadFrame(want byte, maxElems int) (Frame, error)
	// SetReadDeadline and SetWriteDeadline have Conn's semantics.
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
	// Close releases the underlying resources.
	Close() error
}

// shapeDims bounds the rank of a shape frame so a corrupted or hostile
// header cannot trigger a huge allocation.
const shapeDims = 16

// maxModelIDLen bounds the model identifier carried by a 'm' frame.
const maxModelIDLen = 64

// maxErrorBytes bounds an error frame's message; longer messages are
// truncated on send rather than rejected, since the frame exists to carry
// diagnostics back to an already-failing peer.
const maxErrorBytes = 1024

// encodeShape packs a shape into its wire form (one uint32 per dim).
func encodeShape(shape []int) ([]byte, error) {
	if len(shape) > shapeDims {
		return nil, fmt.Errorf("transport: shape rank %d exceeds %d", len(shape), shapeDims)
	}
	payload := make([]byte, 4*len(shape))
	for i, d := range shape {
		if d < 0 || int64(d) > int64(^uint32(0)) {
			return nil, fmt.Errorf("transport: shape dim %d out of range", d)
		}
		binary.LittleEndian.PutUint32(payload[4*i:], uint32(d))
	}
	return payload, nil
}

// decodeShape unpacks a shape wire payload.
func decodeShape(payload []byte) ([]int, error) {
	if len(payload)%4 != 0 || len(payload) > 4*shapeDims {
		return nil, fmt.Errorf("transport: malformed shape frame (%d bytes)", len(payload))
	}
	shape := make([]int, len(payload)/4)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return shape, nil
}

// encodeModelShape packs a model identifier and shape into the 'm' frame
// wire form: a 1-byte model length, the model bytes, then the shape dims.
func encodeModelShape(model string, shape []int) ([]byte, error) {
	if len(model) > maxModelIDLen {
		return nil, fmt.Errorf("transport: model id %d bytes exceeds %d", len(model), maxModelIDLen)
	}
	dims, err := encodeShape(shape)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 0, 1+len(model)+len(dims))
	payload = append(payload, byte(len(model)))
	payload = append(payload, model...)
	payload = append(payload, dims...)
	return payload, nil
}

// decodeModelShape unpacks a 'm' frame payload.
func decodeModelShape(payload []byte) (string, []int, error) {
	if len(payload) < 1 {
		return "", nil, fmt.Errorf("transport: empty model+shape frame")
	}
	n := int(payload[0])
	if n > maxModelIDLen || len(payload) < 1+n {
		return "", nil, fmt.Errorf("transport: malformed model+shape frame (%d bytes, model length %d)", len(payload), n)
	}
	model := string(payload[1 : 1+n])
	shape, err := decodeShape(payload[1+n:])
	if err != nil {
		return "", nil, err
	}
	return model, shape, nil
}

// ClampError returns the payload an error frame carries for msg: the
// message clamped to the frame bound, or a placeholder for an empty one so
// RecvReply callers can always distinguish an error frame (non-empty
// errMsg) from an empty data frame. Every SendError goes through it, and
// so does anything that accounts an error frame's size.
func ClampError(msg string) string {
	if msg == "" {
		return "unspecified error"
	}
	if len(msg) > maxErrorBytes {
		return msg[:maxErrorBytes]
	}
	return msg
}

// maxFrameBytes bounds a data frame's payload so a corrupted or hostile
// header cannot force a giant allocation before any content validation
// runs. The largest legitimate frames are weight-share transfers, well
// under this.
const maxFrameBytes = 1 << 30

// kindLimit is the per-kind payload cap enforced before any allocation:
// control frames are tiny by definition, data frames are bounded by
// maxFrameBytes (or tighter, when the receiver knows the expected size and
// calls a bounded receive).
func kindLimit(kind byte) uint64 {
	switch kind {
	case KindShape:
		return 4 * shapeDims
	case KindModelShape:
		return 1 + maxModelIDLen + 4*shapeDims
	case KindError:
		return maxErrorBytes
	default:
		return maxFrameBytes
	}
}

// admit is the one frame check every receive path runs, on a frame's kind
// and payload length before any payload is allocated: the kind must be a
// wire kind and the one the caller expects, the length within the kind's
// limit (and a bounded uint64 receive's maxElems), and a data frame's
// length a whole number of elements.
func admit(want byte, maxElems int, kind byte, n uint64) error {
	ok := kind == want
	if want == KindReply {
		ok = kind == KindUint64s || kind == KindError
	}
	if !ok || !slices.Contains(Kinds[:], kind) {
		return fmt.Errorf("transport: expected a %s frame, got a %q frame", KindName(want), kind)
	}
	if kind == KindUint64s && maxElems >= 0 && n/8 > uint64(maxElems) {
		return fmt.Errorf("transport: uint64 frame of %d bytes exceeds expected %d elements", n, maxElems)
	}
	if limit := kindLimit(kind); n > limit {
		return fmt.Errorf("transport: frame kind %q payload %d exceeds limit %d", kind, n, limit)
	}
	elem := uint64(1)
	switch kind {
	case KindUints:
		elem = 4
	case KindUint64s:
		elem = 8
	}
	if n%elem != 0 {
		return fmt.Errorf("transport: frame kind %q payload of %d bytes is not a whole number of %d-byte elements", kind, n, elem)
	}
	return nil
}

// MemConn is one endpoint of an in-memory duplex pipe, a Link carrying
// Frames as they are. The frame channel is never closed (a concurrent
// send on a closed channel would panic the sender); shutdown is signalled
// out-of-band through per-endpoint close channels instead, so Close racing
// an in-flight send is an error return, not a crash.
type MemConn struct {
	conn // the typed methods, over this endpoint's own frames

	send chan<- Frame
	recv <-chan Frame

	// closed is this endpoint's own close signal (its send direction);
	// peerClosed is the peer endpoint's, which turns receives into EOF
	// once the buffer drains and fails sends nobody will ever read.
	closed     chan struct{}
	closeOnce  *sync.Once
	peerClosed <-chan struct{}

	dmu       sync.Mutex
	deadline  time.Time
	wdeadline time.Time
}

// Pipe returns the two connected endpoints of an in-memory transport.
// Buffering is generous enough that the symmetric send-then-receive
// pattern used by the protocols cannot deadlock.
func Pipe() (*MemConn, *MemConn) {
	ab := make(chan Frame, 1024)
	ba := make(chan Frame, 1024)
	a := &MemConn{send: ab, recv: ba, closed: make(chan struct{}), closeOnce: new(sync.Once)}
	b := &MemConn{send: ba, recv: ab, closed: make(chan struct{}), closeOnce: new(sync.Once)}
	a.peerClosed = b.closed
	b.peerClosed = a.closed
	a.link, b.link = a, b
	return a, b
}

// SetReadDeadline implements Link.
func (m *MemConn) SetReadDeadline(t time.Time) error {
	m.dmu.Lock()
	m.deadline = t
	m.dmu.Unlock()
	return nil
}

// SetWriteDeadline implements Link.
func (m *MemConn) SetWriteDeadline(t time.Time) error {
	m.dmu.Lock()
	m.wdeadline = t
	m.dmu.Unlock()
	return nil
}

// recvEOF resolves a peer-close signal: frames the peer buffered before
// closing are still delivered, then receives report EOF — matching the
// drain-then-EOF behavior of a closed channel without ever closing one.
func (m *MemConn) recvEOF() (Frame, error) {
	select {
	case f := <-m.recv:
		return f, nil
	default:
		return Frame{}, io.EOF
	}
}

// ReadFrame implements Link. It blocks for the next frame, honoring the
// read deadline with net.Conn semantics: an expired deadline fails
// immediately (even if a frame is already buffered), an armed one bounds
// the wait. The delivered frame then passes the same admit check a TCP
// header does.
func (m *MemConn) ReadFrame(want byte, maxElems int) (Frame, error) {
	f, err := m.recvFrame()
	if err != nil {
		return Frame{}, err
	}
	if err := admit(want, maxElems, f.Kind, uint64(f.Len())); err != nil {
		return Frame{}, err
	}
	return f, nil
}

func (m *MemConn) recvFrame() (Frame, error) {
	m.dmu.Lock()
	dl := m.deadline
	m.dmu.Unlock()
	if dl.IsZero() {
		select {
		case f := <-m.recv:
			return f, nil
		case <-m.peerClosed:
			return m.recvEOF()
		}
	}
	wait := time.Until(dl)
	if wait <= 0 {
		return Frame{}, fmt.Errorf("transport: read deadline exceeded: %w", os.ErrDeadlineExceeded)
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case f := <-m.recv:
		return f, nil
	case <-m.peerClosed:
		return m.recvEOF()
	case <-timer.C:
		return Frame{}, fmt.Errorf("transport: read deadline exceeded: %w", os.ErrDeadlineExceeded)
	}
}

// WriteFrame implements Link. It enqueues a copy of f's payload, so the
// caller may reuse its slice, honoring the write deadline and both close
// signals. Sending after this endpoint's own Close fails with an error
// satisfying errors.Is(err, io.ErrClosedPipe). A send with room in the
// pipe still succeeds after the *peer* closed — close is
// direction-oriented, like the socket shutdown it models, and the serving
// loops' graceful teardown depends on it (one side sends its last frames
// and closes; the other drains and sees EOF). Only a send already blocked
// on a full pipe fails on peer close (no reader will ever free a slot) or
// at the write deadline; the old implementation wedged such a sender
// forever.
func (m *MemConn) WriteFrame(f Frame) error {
	switch f.Kind {
	case KindUints:
		f.U32 = append(make([]uint32, 0, len(f.U32)), f.U32...)
	case KindUint64s:
		f.U64 = append(make([]uint64, 0, len(f.U64)), f.U64...)
	default:
		f.Raw = append(make([]byte, 0, len(f.Raw)), f.Raw...)
	}
	select {
	case <-m.closed:
		return fmt.Errorf("transport: send on closed connection: %w", io.ErrClosedPipe)
	default:
	}
	m.dmu.Lock()
	dl := m.wdeadline
	m.dmu.Unlock()
	if !dl.IsZero() && time.Until(dl) <= 0 {
		// net.Conn semantics: an already-expired deadline fails the send
		// immediately, even if the pipe has room.
		return fmt.Errorf("transport: write deadline exceeded: %w", os.ErrDeadlineExceeded)
	}
	select {
	case m.send <- f:
		return nil
	default:
	}
	if dl.IsZero() {
		select {
		case m.send <- f:
			return nil
		case <-m.closed:
			return fmt.Errorf("transport: send on closed connection: %w", io.ErrClosedPipe)
		case <-m.peerClosed:
			return fmt.Errorf("transport: send blocked on closed peer: %w", io.ErrClosedPipe)
		}
	}
	timer := time.NewTimer(time.Until(dl))
	defer timer.Stop()
	select {
	case m.send <- f:
		return nil
	case <-m.closed:
		return fmt.Errorf("transport: send on closed connection: %w", io.ErrClosedPipe)
	case <-m.peerClosed:
		return fmt.Errorf("transport: send blocked on closed peer: %w", io.ErrClosedPipe)
	case <-timer.C:
		return fmt.Errorf("transport: write deadline exceeded: %w", os.ErrDeadlineExceeded)
	}
}

// Close implements Link. Closing signals the peer (its receives drain any
// buffered frames, then report EOF) and fails this endpoint's subsequent
// sends with io.ErrClosedPipe — including sends already blocked on a full
// pipe. Close is idempotent and safe against concurrent in-flight sends:
// the frame channel itself is never closed, so there is no
// send-on-closed-channel panic window.
func (m *MemConn) Close() error {
	m.closeOnce.Do(func() { close(m.closed) })
	return nil
}

// TCPConn is a Link over a net.Conn: each frame is a 5-byte header
// (kind + little-endian payload length) and the payload. Sends run
// inline; the protocol layer's exchange helper is responsible for
// avoiding rendezvous deadlock.
type TCPConn struct {
	conn // the typed methods, over this connection's own frames

	nc  net.Conn
	hdr [5]byte // the read side's header buffer
}

// NewTCPConn wraps an established network connection.
func NewTCPConn(nc net.Conn) *TCPConn {
	t := &TCPConn{nc: nc}
	t.link = t
	return t
}

// Dial connects to a listening peer.
func Dial(addr string) (*TCPConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(nc), nil
}

// WriteFrame implements Link.
func (t *TCPConn) WriteFrame(f Frame) error {
	payload := f.Raw
	switch f.Kind {
	case KindUints:
		payload = make([]byte, 4*len(f.U32))
		for i, x := range f.U32 {
			binary.LittleEndian.PutUint32(payload[4*i:], x)
		}
	case KindUint64s:
		payload = make([]byte, 8*len(f.U64))
		for i, x := range f.U64 {
			binary.LittleEndian.PutUint64(payload[8*i:], x)
		}
	}
	var hdr [5]byte
	hdr[0] = f.Kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := t.nc.Write(hdr[:]); err != nil {
		return err
	}
	_, err := t.nc.Write(payload)
	return err
}

// ReadFrame implements Link.
func (t *TCPConn) ReadFrame(want byte, maxElems int) (Frame, error) {
	return readFrame(t.nc, t.hdr[:], want, maxElems)
}

// readFrame is the TCP frame decoder: it reads a 5-byte header from r into
// hdr, admits the declared kind and length, and only then allocates and
// reads the payload.
func readFrame(r io.Reader, hdr []byte, want byte, maxElems int) (Frame, error) {
	if _, err := io.ReadFull(r, hdr[:5]); err != nil {
		return Frame{}, err
	}
	kind, n := hdr[0], binary.LittleEndian.Uint32(hdr[1:5])
	if err := admit(want, maxElems, kind, uint64(n)); err != nil {
		return Frame{}, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, err
	}
	f := Frame{Kind: kind}
	switch kind {
	case KindUints:
		f.U32 = make([]uint32, n/4)
		for i := range f.U32 {
			f.U32[i] = binary.LittleEndian.Uint32(payload[4*i:])
		}
	case KindUint64s:
		f.U64 = make([]uint64, n/8)
		for i := range f.U64 {
			f.U64[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
	default:
		f.Raw = payload
	}
	return f, nil
}

// SetReadDeadline implements Link by delegating to the network
// connection; its timeout errors already satisfy
// errors.Is(err, os.ErrDeadlineExceeded).
func (t *TCPConn) SetReadDeadline(tm time.Time) error { return t.nc.SetReadDeadline(tm) }

// SetWriteDeadline implements Link by delegating to the network
// connection. A send to a peer that has stopped reading blocks once the
// kernel socket buffer fills; the deadline turns that stall into an
// os.ErrDeadlineExceeded instead of a wedged goroutine.
func (t *TCPConn) SetWriteDeadline(tm time.Time) error { return t.nc.SetWriteDeadline(tm) }

// Close implements Link.
func (t *TCPConn) Close() error { return t.nc.Close() }

// Exchange sends mine and receives the peer's slice concurrently, the
// symmetric rendezvous at the heart of Beaver-style openings. The send is
// performed on a separate goroutine so neither TCP peer can block the other.
// Both sides of an opening exchange equal lengths, so the receive is
// bounded to len(mine) words: a peer frame claiming more fails at its
// header, before any payload is allocated.
func Exchange(c Conn, mine []uint64) ([]uint64, error) {
	errc := make(chan error, 1)
	go func() { errc <- c.SendUint64s(mine) }()
	theirs, err := c.RecvUint64sMax(len(mine))
	if sendErr := <-errc; sendErr != nil {
		return nil, fmt.Errorf("transport: exchange send: %w", sendErr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: exchange recv: %w", err)
	}
	return theirs, nil
}
