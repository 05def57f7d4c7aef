package obs

import "pasnet/internal/transport"

type WireConn struct {
	inner transport.Conn
	// A counter field is not a method.
	RecvBytes, RecvFrames int64
}

func (w *WireConn) SendUints(xs []uint32) error { return w.inner.SendUints(xs) } // want
