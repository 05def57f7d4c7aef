package obs

import (
	"testing"

	"pasnet/internal/transport"
)

// countingConn is shaped like the benchmark's timedConn: it embeds a
// transport.Conn and overrides every typed method, here to count the
// frames and payload bytes that pass through it. The embedded conn is a
// pipe endpoint, which is itself a transport.Link, so a decorator that
// asserted its inner conn to a Link would reach the pipe directly and
// these overrides would see nothing.
type countingConn struct {
	*transport.MemConn
	frames, bytes int
}

func (c *countingConn) note(n int, err error) error {
	if err == nil {
		c.frames++
		c.bytes += n
	}
	return err
}

func (c *countingConn) SendUints(xs []uint32) error {
	return c.note(4*len(xs), c.MemConn.SendUints(xs))
}

func (c *countingConn) SendUint64s(xs []uint64) error {
	return c.note(8*len(xs), c.MemConn.SendUint64s(xs))
}

func (c *countingConn) SendBytes(b []byte) error {
	return c.note(len(b), c.MemConn.SendBytes(b))
}

func (c *countingConn) SendShape(shape []int) error {
	return c.note(4*len(shape), c.MemConn.SendShape(shape))
}

func (c *countingConn) SendModelShape(model string, shape []int) error {
	return c.note(1+len(model)+4*len(shape), c.MemConn.SendModelShape(model, shape))
}

func (c *countingConn) SendError(msg string) error {
	return c.note(len(transport.ClampError(msg)), c.MemConn.SendError(msg))
}

func (c *countingConn) RecvUints() ([]uint32, error) {
	xs, err := c.MemConn.RecvUints()
	return xs, c.note(4*len(xs), err)
}

func (c *countingConn) RecvUint64s() ([]uint64, error) {
	xs, err := c.MemConn.RecvUint64s()
	return xs, c.note(8*len(xs), err)
}

func (c *countingConn) RecvUint64sMax(maxElems int) ([]uint64, error) {
	xs, err := c.MemConn.RecvUint64sMax(maxElems)
	return xs, c.note(8*len(xs), err)
}

func (c *countingConn) RecvBytes() ([]byte, error) {
	b, err := c.MemConn.RecvBytes()
	return b, c.note(len(b), err)
}

func (c *countingConn) RecvShape() ([]int, error) {
	shape, err := c.MemConn.RecvShape()
	return shape, c.note(4*len(shape), err)
}

func (c *countingConn) RecvModelShape() (string, []int, error) {
	model, shape, err := c.MemConn.RecvModelShape()
	return model, shape, c.note(1+len(model)+4*len(shape), err)
}

func (c *countingConn) RecvReply(maxElems int) ([]uint64, string, error) {
	vals, msg, err := c.MemConn.RecvReply(maxElems)
	return vals, msg, c.note(8*len(vals)+len(msg), err)
}

// TestDecoratorsReachEmbedderOverrides runs a mixed frame sequence in
// both directions through obs.InstrumentConn, transport.NewFaultConn and
// the two stacked, each over a countingConn, and checks the embedder's
// overrides saw every frame and byte the decorator carried.
func TestDecoratorsReachEmbedderOverrides(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(transport.Conn) transport.Conn
	}{
		{"instrument", func(c transport.Conn) transport.Conn { return InstrumentConn(c, nil) }},
		{"fault", func(c transport.Conn) transport.Conn {
			fc := transport.NewFaultConn(c, transport.FaultPlan{})
			fc.Arm()
			return fc
		}},
		{"instrument over fault", func(c transport.Conn) transport.Conn {
			return InstrumentConn(transport.NewFaultConn(c, transport.FaultPlan{}), nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mine, peer := transport.Pipe()
			inner := &countingConn{MemConn: mine}
			c := tc.wrap(inner)
			defer c.Close()
			defer peer.Close()
			const frames, bytes = 2 * 8, 2 * (12 + 16 + 3 + 8 + 12 + 4 + 8 + 24)
			steps := []func(a, b transport.Conn) error{
				func(a, b transport.Conn) error { return a.SendUints([]uint32{1, 2, 3}) },
				func(a, b transport.Conn) error { _, err := b.RecvUints(); return err },
				func(a, b transport.Conn) error { return a.SendUint64s([]uint64{4, 5}) },
				func(a, b transport.Conn) error { _, err := b.RecvUint64s(); return err },
				func(a, b transport.Conn) error { return a.SendBytes([]byte("abc")) },
				func(a, b transport.Conn) error { _, err := b.RecvBytes(); return err },
				func(a, b transport.Conn) error { return a.SendShape([]int{2, 8}) },
				func(a, b transport.Conn) error { _, err := b.RecvShape(); return err },
				func(a, b transport.Conn) error { return a.SendModelShape("cnn", []int{2, 8}) },
				func(a, b transport.Conn) error { _, _, err := b.RecvModelShape(); return err },
				func(a, b transport.Conn) error { return a.SendError("oops") },
				func(a, b transport.Conn) error { _, _, err := b.RecvReply(4); return err },
				func(a, b transport.Conn) error { return a.SendUint64s([]uint64{6}) },
				func(a, b transport.Conn) error { _, _, err := b.RecvReply(4); return err },
				func(a, b transport.Conn) error { return a.SendUint64s([]uint64{7, 8, 9}) },
				func(a, b transport.Conn) error { _, err := b.RecvUint64sMax(3); return err },
			}
			for i, step := range steps {
				if err := step(c, peer); err != nil {
					t.Fatalf("step %d, decorated end sending: %v", i, err)
				}
				if err := step(peer, c); err != nil {
					t.Fatalf("step %d, decorated end receiving: %v", i, err)
				}
			}
			if inner.frames != frames || inner.bytes != bytes {
				t.Fatalf("embedder overrides saw %d frames, %d bytes; the decorator carried %d, %d",
					inner.frames, inner.bytes, frames, bytes)
			}
			if w, ok := c.(*WireConn); ok {
				tot := w.Totals()
				if got := tot.SentFrames + tot.RecvFrames; got != frames {
					t.Fatalf("WireConn counted %d frames, want %d", got, frames)
				}
				if got := tot.SentBytes + tot.RecvBytes; got != bytes {
					t.Fatalf("WireConn counted %d bytes, want %d", got, bytes)
				}
			}
		})
	}
}
