package transport

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
)

// goldenFrame is one TCP frame pinned byte for byte: what send writes, and
// what recv must return when those bytes arrive.
type goldenFrame struct {
	name string
	send func(Conn) error
	recv func(Conn) (any, error)
	want any
	wire []byte
}

var longError = strings.Repeat("x", 2000)

// goldenFrames covers the six frame kinds, the empty-shape sentinel and
// the two error frames whose payload is not the message as given (an
// empty message's placeholder, and a message clamped to maxErrorBytes).
// The wire form is a 1-byte kind, a little-endian uint32 payload length,
// then the payload.
var goldenFrames = []goldenFrame{
	{
		name: "uints",
		send: func(c Conn) error { return c.SendUints([]uint32{1, 0xdeadbeef}) },
		recv: func(c Conn) (any, error) { return c.RecvUints() },
		want: []uint32{1, 0xdeadbeef},
		wire: []byte{'u', 8, 0, 0, 0, 1, 0, 0, 0, 0xef, 0xbe, 0xad, 0xde},
	},
	{
		name: "uint64s",
		send: func(c Conn) error { return c.SendUint64s([]uint64{0x0102030405060708, 9}) },
		recv: func(c Conn) (any, error) { return c.RecvUint64s() },
		want: []uint64{0x0102030405060708, 9},
		wire: []byte{'U', 16, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 9, 0, 0, 0, 0, 0, 0, 0},
	},
	{
		name: "bytes",
		send: func(c Conn) error { return c.SendBytes([]byte("hi!")) },
		recv: func(c Conn) (any, error) { return c.RecvBytes() },
		want: []byte("hi!"),
		wire: []byte{'b', 3, 0, 0, 0, 'h', 'i', '!'},
	},
	{
		name: "shape",
		send: func(c Conn) error { return c.SendShape([]int{1, 3, 16, 300}) },
		recv: func(c Conn) (any, error) { return c.RecvShape() },
		want: []int{1, 3, 16, 300},
		wire: []byte{'s', 16, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 16, 0, 0, 0, 0x2c, 1, 0, 0},
	},
	{
		name: "empty shape",
		send: func(c Conn) error { return c.SendShape(nil) },
		recv: func(c Conn) (any, error) { return c.RecvShape() },
		want: []int{},
		wire: []byte{'s', 0, 0, 0, 0},
	},
	{
		name: "model shape",
		send: func(c Conn) error { return c.SendModelShape("cnn", []int{2, 8}) },
		recv: func(c Conn) (any, error) {
			model, shape, err := c.RecvModelShape()
			return []any{model, shape}, err
		},
		want: []any{"cnn", []int{2, 8}},
		wire: []byte{'m', 12, 0, 0, 0, 3, 'c', 'n', 'n', 2, 0, 0, 0, 8, 0, 0, 0},
	},
	{
		name: "error",
		send: func(c Conn) error { return c.SendError("no such model") },
		recv: func(c Conn) (any, error) {
			_, msg, err := c.RecvReply(4)
			return msg, err
		},
		want: "no such model",
		wire: append([]byte{'e', 13, 0, 0, 0}, "no such model"...),
	},
	{
		name: "empty error",
		send: func(c Conn) error { return c.SendError("") },
		recv: func(c Conn) (any, error) {
			_, msg, err := c.RecvReply(4)
			return msg, err
		},
		want: "unspecified error",
		wire: append([]byte{'e', 17, 0, 0, 0}, "unspecified error"...),
	},
	{
		name: "clamped error",
		send: func(c Conn) error { return c.SendError(longError) },
		recv: func(c Conn) (any, error) {
			_, msg, err := c.RecvReply(4)
			return msg, err
		},
		want: longError[:1024],
		wire: append([]byte{'e', 0, 4, 0, 0}, longError[:1024]...),
	},
	{
		name: "reply data",
		send: func(c Conn) error { return c.SendUint64s([]uint64{11}) },
		recv: func(c Conn) (any, error) {
			vals, _, err := c.RecvReply(4)
			return vals, err
		},
		want: []uint64{11},
		wire: []byte{'U', 8, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0},
	},
}

// TestTCPWireGolden pins the TCP framing byte for byte: each frame kind's
// send writes exactly its golden bytes (nothing before, nothing after),
// and a receive over those bytes returns the value that was sent.
func TestTCPWireGolden(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			w, r := net.Pipe()
			sendErr := make(chan error, 1)
			go func() {
				sendErr <- g.send(NewTCPConn(w))
				w.Close()
			}()
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, g.wire) {
				t.Fatalf("wire bytes\n got %x\nwant %x", got, g.wire)
			}

			peer, victim := net.Pipe()
			defer peer.Close()
			go peer.Write(g.wire)
			c := NewTCPConn(victim)
			defer c.Close()
			val, err := g.recv(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(val, g.want) {
				t.Fatalf("received %v, want %v", val, g.want)
			}
		})
	}
}
