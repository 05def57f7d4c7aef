package transport

import (
	"fmt"
	"time"
)

// conn is the one implementation of Conn's typed methods: each send
// encodes its arguments into one Frame for the link's WriteFrame, and each
// receive reads one Frame of the kind it expects and decodes it. MemConn,
// TCPConn and FaultConn embed it over themselves, so a type doing that
// must define the deadlines and Close itself (conn's forward to the link).
type conn struct{ link Link }

// NewConn returns the Conn over l.
func NewConn(l Link) Conn { return &conn{link: l} }

// SendUints implements Conn. The slice may be reused once it returns.
func (c *conn) SendUints(xs []uint32) error {
	return c.link.WriteFrame(Frame{Kind: KindUints, U32: xs})
}

// RecvUints implements Conn.
func (c *conn) RecvUints() ([]uint32, error) {
	f, err := c.link.ReadFrame(KindUints, -1)
	return f.U32, err
}

// SendUint64s implements Conn.
func (c *conn) SendUint64s(xs []uint64) error {
	return c.link.WriteFrame(Frame{Kind: KindUint64s, U64: xs})
}

// RecvUint64s implements Conn.
func (c *conn) RecvUint64s() ([]uint64, error) {
	f, err := c.link.ReadFrame(KindUint64s, -1)
	return f.U64, err
}

// RecvUint64sMax implements Conn.
func (c *conn) RecvUint64sMax(maxElems int) ([]uint64, error) {
	f, err := c.link.ReadFrame(KindUint64s, maxElems)
	return f.U64, err
}

// SendBytes implements Conn.
func (c *conn) SendBytes(b []byte) error {
	return c.link.WriteFrame(Frame{Kind: KindBytes, Raw: b})
}

// RecvBytes implements Conn.
func (c *conn) RecvBytes() ([]byte, error) {
	f, err := c.link.ReadFrame(KindBytes, -1)
	return f.Raw, err
}

// SendShape implements Conn.
func (c *conn) SendShape(shape []int) error {
	payload, err := encodeShape(shape)
	if err != nil {
		return err
	}
	return c.link.WriteFrame(Frame{Kind: KindShape, Raw: payload})
}

// RecvShape implements Conn.
func (c *conn) RecvShape() ([]int, error) {
	f, err := c.link.ReadFrame(KindShape, -1)
	if err != nil {
		return nil, err
	}
	return decodeShape(f.Raw)
}

// SendModelShape implements Conn.
func (c *conn) SendModelShape(model string, shape []int) error {
	payload, err := encodeModelShape(model, shape)
	if err != nil {
		return err
	}
	return c.link.WriteFrame(Frame{Kind: KindModelShape, Raw: payload})
}

// RecvModelShape implements Conn.
func (c *conn) RecvModelShape() (string, []int, error) {
	f, err := c.link.ReadFrame(KindModelShape, -1)
	if err != nil {
		return "", nil, err
	}
	return decodeModelShape(f.Raw)
}

// SendError implements Conn.
func (c *conn) SendError(msg string) error {
	return c.link.WriteFrame(Frame{Kind: KindError, Raw: []byte(ClampError(msg))})
}

// RecvReply implements Conn.
func (c *conn) RecvReply(maxElems int) ([]uint64, string, error) {
	f, err := c.link.ReadFrame(KindReply, maxElems)
	if err != nil {
		return nil, "", err
	}
	if f.Kind == KindError {
		return nil, string(f.Raw), nil
	}
	return f.U64, "", nil
}

// SetReadDeadline implements Conn.
func (c *conn) SetReadDeadline(t time.Time) error { return c.link.SetReadDeadline(t) }

// SetWriteDeadline implements Conn.
func (c *conn) SetWriteDeadline(t time.Time) error { return c.link.SetWriteDeadline(t) }

// Close implements Conn.
func (c *conn) Close() error { return c.link.Close() }

// AsLink returns the Link view of a Conn built elsewhere: WriteFrame and
// ReadFrame dispatch by kind to c's own typed methods. A decorator over a
// Conn it did not build reaches it only this way, never by asserting the
// Conn to a Link, so a type that embeds a Conn and overrides its typed
// methods still sees every frame.
func AsLink(c Conn) Link { return typedLink{c} }

type typedLink struct{ Conn }

func (l typedLink) WriteFrame(f Frame) error {
	switch f.Kind {
	case KindUints:
		return l.SendUints(f.U32)
	case KindUint64s:
		return l.SendUint64s(f.U64)
	case KindBytes:
		return l.SendBytes(f.Raw)
	case KindShape:
		shape, err := decodeShape(f.Raw)
		if err != nil {
			return err
		}
		return l.SendShape(shape)
	case KindModelShape:
		model, shape, err := decodeModelShape(f.Raw)
		if err != nil {
			return err
		}
		return l.SendModelShape(model, shape)
	case KindError:
		return l.SendError(string(f.Raw))
	}
	return fmt.Errorf("transport: cannot send a %q frame", f.Kind)
}

func (l typedLink) ReadFrame(want byte, maxElems int) (Frame, error) {
	f := Frame{Kind: want}
	var err error
	switch want {
	case KindUints:
		f.U32, err = l.RecvUints()
	case KindUint64s:
		if maxElems < 0 {
			f.U64, err = l.RecvUint64s()
		} else {
			f.U64, err = l.RecvUint64sMax(maxElems)
		}
	case KindBytes:
		f.Raw, err = l.RecvBytes()
	case KindShape:
		var shape []int
		if shape, err = l.RecvShape(); err == nil {
			f.Raw, err = encodeShape(shape)
		}
	case KindModelShape:
		var model string
		var shape []int
		if model, shape, err = l.RecvModelShape(); err == nil {
			f.Raw, err = encodeModelShape(model, shape)
		}
	case KindReply:
		var msg string
		f.Kind = KindUint64s
		if f.U64, msg, err = l.RecvReply(maxElems); msg != "" {
			f = Frame{Kind: KindError, Raw: []byte(msg)}
		}
	default:
		return Frame{}, fmt.Errorf("transport: cannot receive a %q frame", want)
	}
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}
