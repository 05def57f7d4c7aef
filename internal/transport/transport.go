// Package transport provides the two-party message channel used by the 2PC
// protocols: an in-memory duplex pipe for single-process simulation and
// tests, and a TCP transport for genuine two-process deployment
// (cmd/pasnet-server). Neither counts traffic: wrap an endpoint in
// obs.InstrumentConn for byte, frame and round totals.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Conn is a reliable, ordered, message-framed duplex channel between the
// two computing parties.
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

// message is the unit carried by the in-memory pipe.
type message struct {
	kind byte // 'u' uint32s, 'U' uint64s, 'b' bytes, 's' shape, 'm' model+shape, 'e' error
	u32  []uint32
	u64  []uint64
	raw  []byte
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

// MemConn is one endpoint of an in-memory duplex pipe. The message channel
// is never closed (a concurrent send on a closed channel would panic the
// sender); shutdown is signalled out-of-band through per-endpoint close
// channels instead, so Close racing an in-flight send is an error return,
// not a crash.
type MemConn struct {
	send chan<- message
	recv <-chan message

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
	ab := make(chan message, 1024)
	ba := make(chan message, 1024)
	a := &MemConn{send: ab, recv: ba, closed: make(chan struct{}), closeOnce: new(sync.Once)}
	b := &MemConn{send: ba, recv: ab, closed: make(chan struct{}), closeOnce: new(sync.Once)}
	a.peerClosed = b.closed
	b.peerClosed = a.closed
	return a, b
}

// SetReadDeadline implements Conn.
func (m *MemConn) SetReadDeadline(t time.Time) error {
	m.dmu.Lock()
	m.deadline = t
	m.dmu.Unlock()
	return nil
}

// SetWriteDeadline implements Conn.
func (m *MemConn) SetWriteDeadline(t time.Time) error {
	m.dmu.Lock()
	m.wdeadline = t
	m.dmu.Unlock()
	return nil
}

// recvEOF resolves a peer-close signal: frames the peer buffered before
// closing are still delivered, then receives report EOF — matching the
// drain-then-EOF behavior of a closed channel without ever closing one.
func (m *MemConn) recvEOF() (message, error) {
	select {
	case msg := <-m.recv:
		return msg, nil
	default:
		return message{}, io.EOF
	}
}

// recvMsg blocks for the next frame, honoring the read deadline with
// net.Conn semantics: an expired deadline fails immediately (even if a
// frame is already buffered), an armed one bounds the wait. All MemConn
// receive paths go through it.
func (m *MemConn) recvMsg() (message, error) {
	m.dmu.Lock()
	dl := m.deadline
	m.dmu.Unlock()
	if dl.IsZero() {
		select {
		case msg := <-m.recv:
			return msg, nil
		case <-m.peerClosed:
			return m.recvEOF()
		}
	}
	wait := time.Until(dl)
	if wait <= 0 {
		return message{}, fmt.Errorf("transport: read deadline exceeded: %w", os.ErrDeadlineExceeded)
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case msg := <-m.recv:
		return msg, nil
	case <-m.peerClosed:
		return m.recvEOF()
	case <-timer.C:
		return message{}, fmt.Errorf("transport: read deadline exceeded: %w", os.ErrDeadlineExceeded)
	}
}

// sendMsg enqueues a frame, honoring the write deadline and both close
// signals. Sending after this endpoint's own Close fails with an error
// satisfying errors.Is(err, io.ErrClosedPipe). A send with room in the
// pipe still succeeds after the *peer* closed — close is
// direction-oriented, like the socket shutdown it models, and the serving
// loops' graceful teardown depends on it (one side sends its last frames
// and closes; the other drains and sees EOF). Only a send already blocked
// on a full pipe fails on peer close (no reader will ever free a slot) or
// at the write deadline; the old implementation wedged such a sender
// forever.
func (m *MemConn) sendMsg(msg message) error {
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
	case m.send <- msg:
		return nil
	default:
	}
	if dl.IsZero() {
		select {
		case m.send <- msg:
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
	case m.send <- msg:
		return nil
	case <-m.closed:
		return fmt.Errorf("transport: send on closed connection: %w", io.ErrClosedPipe)
	case <-m.peerClosed:
		return fmt.Errorf("transport: send blocked on closed peer: %w", io.ErrClosedPipe)
	case <-timer.C:
		return fmt.Errorf("transport: write deadline exceeded: %w", os.ErrDeadlineExceeded)
	}
}

// SendUints implements Conn. The slice is copied so callers may reuse it.
func (m *MemConn) SendUints(xs []uint32) error {
	cp := make([]uint32, len(xs))
	copy(cp, xs)
	return m.sendMsg(message{kind: 'u', u32: cp})
}

// RecvUints implements Conn.
func (m *MemConn) RecvUints() ([]uint32, error) {
	msg, err := m.recvMsg()
	if err != nil {
		return nil, err
	}
	if msg.kind != 'u' {
		return nil, wrongKind("uint32", msg.kind)
	}
	return msg.u32, nil
}

// SendUint64s implements Conn.
func (m *MemConn) SendUint64s(xs []uint64) error {
	cp := make([]uint64, len(xs))
	copy(cp, xs)
	return m.sendMsg(message{kind: 'U', u64: cp})
}

// RecvUint64s implements Conn.
func (m *MemConn) RecvUint64s() ([]uint64, error) {
	msg, err := m.recvMsg()
	if err != nil {
		return nil, err
	}
	if msg.kind != 'U' {
		return nil, wrongKind("uint64", msg.kind)
	}
	return msg.u64, nil
}

// RecvUint64sMax implements Conn. The in-memory pipe has no header to
// pre-validate, so the bound is checked on the delivered slice.
func (m *MemConn) RecvUint64sMax(maxElems int) ([]uint64, error) {
	xs, err := m.RecvUint64s()
	if err != nil {
		return nil, err
	}
	if len(xs) > maxElems {
		return nil, fmt.Errorf("transport: uint64 frame of %d elements exceeds expected %d", len(xs), maxElems)
	}
	return xs, nil
}

// SendBytes implements Conn.
func (m *MemConn) SendBytes(b []byte) error {
	cp := make([]byte, len(b))
	copy(cp, b)
	return m.sendMsg(message{kind: 'b', raw: cp})
}

// RecvBytes implements Conn.
func (m *MemConn) RecvBytes() ([]byte, error) {
	msg, err := m.recvMsg()
	if err != nil {
		return nil, err
	}
	if msg.kind != 'b' {
		return nil, wrongKind("byte", msg.kind)
	}
	return msg.raw, nil
}

// SendShape implements Conn.
func (m *MemConn) SendShape(shape []int) error {
	payload, err := encodeShape(shape)
	if err != nil {
		return err
	}
	return m.sendMsg(message{kind: 's', raw: payload})
}

// RecvShape implements Conn.
func (m *MemConn) RecvShape() ([]int, error) {
	msg, err := m.recvMsg()
	if err != nil {
		return nil, err
	}
	if msg.kind != 's' {
		return nil, wrongKind("shape", msg.kind)
	}
	return decodeShape(msg.raw)
}

// SendModelShape implements Conn.
func (m *MemConn) SendModelShape(model string, shape []int) error {
	payload, err := encodeModelShape(model, shape)
	if err != nil {
		return err
	}
	return m.sendMsg(message{kind: 'm', raw: payload})
}

// RecvModelShape implements Conn.
func (m *MemConn) RecvModelShape() (string, []int, error) {
	msg, err := m.recvMsg()
	if err != nil {
		return "", nil, err
	}
	if msg.kind != 'm' {
		return "", nil, wrongKind("model+shape", msg.kind)
	}
	return decodeModelShape(msg.raw)
}

// SendError implements Conn.
func (m *MemConn) SendError(errMsg string) error {
	payload := []byte(ClampError(errMsg))
	return m.sendMsg(message{kind: 'e', raw: payload})
}

// RecvReply implements Conn.
func (m *MemConn) RecvReply(maxElems int) ([]uint64, string, error) {
	msg, err := m.recvMsg()
	if err != nil {
		return nil, "", err
	}
	switch msg.kind {
	case 'e':
		return nil, string(msg.raw), nil
	case 'U':
		if len(msg.u64) > maxElems {
			return nil, "", fmt.Errorf("transport: uint64 reply of %d elements exceeds expected %d", len(msg.u64), maxElems)
		}
		return msg.u64, "", nil
	default:
		return nil, "", wrongKind("reply", msg.kind)
	}
}

// Close implements Conn. Closing signals the peer (its receives drain any
// buffered frames, then report EOF) and fails this endpoint's subsequent
// sends with io.ErrClosedPipe — including sends already blocked on a full
// pipe. Close is idempotent and safe against concurrent in-flight sends:
// the frame channel itself is never closed, so there is no
// send-on-closed-channel panic window.
func (m *MemConn) Close() error {
	m.closeOnce.Do(func() { close(m.closed) })
	return nil
}

// TCPConn frames messages over a net.Conn with a 5-byte header
// (kind + little-endian payload length). Sends run inline; the protocol
// layer's exchange helper is responsible for avoiding rendezvous deadlock.
type TCPConn struct {
	nc  net.Conn
	buf [5]byte
}

// NewTCPConn wraps an established network connection.
func NewTCPConn(nc net.Conn) *TCPConn { return &TCPConn{nc: nc} }

// Dial connects to a listening peer.
func Dial(addr string) (*TCPConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(nc), nil
}

func (t *TCPConn) writeFrame(kind byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := t.nc.Write(hdr[:]); err != nil {
		return err
	}
	_, err := t.nc.Write(payload)
	return err
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
func kindLimit(kind byte) uint32 {
	switch kind {
	case 's':
		return 4 * shapeDims
	case 'm':
		return 1 + maxModelIDLen + 4*shapeDims
	case 'e':
		return maxErrorBytes
	default:
		return maxFrameBytes
	}
}

// readHeader reads the next frame's 5-byte header and returns its kind and
// declared payload length. Nothing is allocated for the payload yet.
func (t *TCPConn) readHeader() (byte, uint32, error) {
	if _, err := io.ReadFull(t.nc, t.buf[:]); err != nil {
		return 0, 0, err
	}
	return t.buf[0], binary.LittleEndian.Uint32(t.buf[1:]), nil
}

// readPayload validates a declared payload length against limit — before
// allocating — then reads the payload. It is the single funnel every
// TCP receive path completes through.
func (t *TCPConn) readPayload(kind byte, n, limit uint32) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("transport: frame kind %q payload %d exceeds limit %d", kind, n, limit)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(t.nc, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func (t *TCPConn) readFrame(wantKind byte) ([]byte, error) {
	kind, n, err := t.readHeader()
	if err != nil {
		return nil, err
	}
	if kind != wantKind {
		return nil, wrongKind(fmt.Sprintf("%q", wantKind), kind)
	}
	return t.readPayload(kind, n, kindLimit(kind))
}

// SendUints implements Conn.
func (t *TCPConn) SendUints(xs []uint32) error {
	payload := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(payload[4*i:], x)
	}
	return t.writeFrame('u', payload)
}

// RecvUints implements Conn.
func (t *TCPConn) RecvUints() ([]uint32, error) {
	payload, err := t.readFrame('u')
	if err != nil {
		return nil, err
	}
	if len(payload)%4 != 0 {
		return nil, raggedFrame('u', len(payload), 4)
	}
	xs := make([]uint32, len(payload)/4)
	for i := range xs {
		xs[i] = binary.LittleEndian.Uint32(payload[4*i:])
	}
	return xs, nil
}

// SendUint64s implements Conn.
func (t *TCPConn) SendUint64s(xs []uint64) error {
	payload := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(payload[8*i:], x)
	}
	return t.writeFrame('U', payload)
}

// RecvUint64s implements Conn.
func (t *TCPConn) RecvUint64s() ([]uint64, error) {
	payload, err := t.readFrame('U')
	if err != nil {
		return nil, err
	}
	return decodeUint64s(payload)
}

// recvBoundedUint64s finishes receiving a 'U' frame whose header (with
// declared length n) was already read: the element bound is enforced
// before any payload allocation, so a hostile length header is rejected
// at header-read time. It is the single place the bounded-receive rule
// lives; RecvUint64sMax and RecvReply both go through it.
func (t *TCPConn) recvBoundedUint64s(n uint32, maxElems int) ([]uint64, error) {
	limit := uint64(8) * uint64(maxElems)
	if limit > maxFrameBytes {
		limit = maxFrameBytes
	}
	if uint64(n) > limit {
		return nil, fmt.Errorf("transport: uint64 frame of %d bytes exceeds expected %d elements", n, maxElems)
	}
	payload, err := t.readPayload('U', n, uint32(limit))
	if err != nil {
		return nil, err
	}
	return decodeUint64s(payload)
}

// RecvUint64sMax implements Conn.
func (t *TCPConn) RecvUint64sMax(maxElems int) ([]uint64, error) {
	kind, n, err := t.readHeader()
	if err != nil {
		return nil, err
	}
	if kind != 'U' {
		return nil, wrongKind("'U'", kind)
	}
	return t.recvBoundedUint64s(n, maxElems)
}

// decodeUint64s decodes a 'U' payload. RecvUint64s, RecvUint64sMax and
// RecvReply all finish here, so a payload that is not a whole number of
// words is rejected on every path instead of losing its tail.
func decodeUint64s(payload []byte) ([]uint64, error) {
	if len(payload)%8 != 0 {
		return nil, raggedFrame('U', len(payload), 8)
	}
	xs := make([]uint64, len(payload)/8)
	for i := range xs {
		xs[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return xs, nil
}

// wrongKind describes a frame of kind got arriving where a want frame
// belongs: the two endpoints disagree about which protocol step they are
// in.
func wrongKind(want string, got byte) error {
	return fmt.Errorf("transport: expected %s frame, got a %q frame", want, got)
}

// raggedFrame describes a data frame whose payload is not a whole number
// of elements — a corrupted or hostile peer, never a short read.
func raggedFrame(kind byte, n, elem int) error {
	return fmt.Errorf("transport: frame kind %q payload of %d bytes is not a whole number of %d-byte elements", kind, n, elem)
}

// SendBytes implements Conn.
func (t *TCPConn) SendBytes(b []byte) error { return t.writeFrame('b', b) }

// RecvBytes implements Conn.
func (t *TCPConn) RecvBytes() ([]byte, error) { return t.readFrame('b') }

// SendShape implements Conn.
func (t *TCPConn) SendShape(shape []int) error {
	payload, err := encodeShape(shape)
	if err != nil {
		return err
	}
	return t.writeFrame('s', payload)
}

// RecvShape implements Conn.
func (t *TCPConn) RecvShape() ([]int, error) {
	payload, err := t.readFrame('s')
	if err != nil {
		return nil, err
	}
	return decodeShape(payload)
}

// SendModelShape implements Conn.
func (t *TCPConn) SendModelShape(model string, shape []int) error {
	payload, err := encodeModelShape(model, shape)
	if err != nil {
		return err
	}
	return t.writeFrame('m', payload)
}

// RecvModelShape implements Conn.
func (t *TCPConn) RecvModelShape() (string, []int, error) {
	payload, err := t.readFrame('m')
	if err != nil {
		return "", nil, err
	}
	return decodeModelShape(payload)
}

// SendError implements Conn.
func (t *TCPConn) SendError(errMsg string) error {
	return t.writeFrame('e', []byte(ClampError(errMsg)))
}

// RecvReply implements Conn.
func (t *TCPConn) RecvReply(maxElems int) ([]uint64, string, error) {
	kind, n, err := t.readHeader()
	if err != nil {
		return nil, "", err
	}
	switch kind {
	case 'e':
		payload, err := t.readPayload(kind, n, maxErrorBytes)
		if err != nil {
			return nil, "", err
		}
		return nil, string(payload), nil
	case 'U':
		vals, err := t.recvBoundedUint64s(n, maxElems)
		if err != nil {
			return nil, "", err
		}
		return vals, "", nil
	default:
		return nil, "", wrongKind("reply", kind)
	}
}

// SetReadDeadline implements Conn by delegating to the network
// connection; its timeout errors already satisfy
// errors.Is(err, os.ErrDeadlineExceeded).
func (t *TCPConn) SetReadDeadline(tm time.Time) error { return t.nc.SetReadDeadline(tm) }

// SetWriteDeadline implements Conn by delegating to the network
// connection. A send to a peer that has stopped reading blocks once the
// kernel socket buffer fills; the deadline turns that stall into an
// os.ErrDeadlineExceeded instead of a wedged goroutine.
func (t *TCPConn) SetWriteDeadline(tm time.Time) error { return t.nc.SetWriteDeadline(tm) }

// Close implements Conn.
func (t *TCPConn) Close() error { return t.nc.Close() }

// Exchange sends mine and receives the peer's slice concurrently, the
// symmetric rendezvous at the heart of Beaver-style openings. The send is
// performed on a separate goroutine so neither TCP peer can block the other.
func Exchange(c Conn, mine []uint64) ([]uint64, error) {
	errc := make(chan error, 1)
	go func() { errc <- c.SendUint64s(mine) }()
	theirs, err := c.RecvUint64s()
	if sendErr := <-errc; sendErr != nil {
		return nil, fmt.Errorf("transport: exchange send: %w", sendErr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: exchange recv: %w", err)
	}
	return theirs, nil
}

// ExchangeShapes is Exchange for shape control frames: each party sends its
// view of the tensor geometry and receives the peer's, letting both sides
// validate agreement before any protocol data flows.
func ExchangeShapes(c Conn, mine []int) ([]int, error) {
	errc := make(chan error, 1)
	go func() { errc <- c.SendShape(mine) }()
	theirs, err := c.RecvShape()
	if sendErr := <-errc; sendErr != nil {
		return nil, fmt.Errorf("transport: exchange send: %w", sendErr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: exchange recv: %w", err)
	}
	return theirs, nil
}

// ExchangeBytes is Exchange for raw byte payloads.
func ExchangeBytes(c Conn, mine []byte) ([]byte, error) {
	errc := make(chan error, 1)
	go func() { errc <- c.SendBytes(mine) }()
	theirs, err := c.RecvBytes()
	if sendErr := <-errc; sendErr != nil {
		return nil, fmt.Errorf("transport: exchange send: %w", sendErr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: exchange recv: %w", err)
	}
	return theirs, nil
}
