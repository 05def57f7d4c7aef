package transport

import (
	"net"
	"sync"
	"testing"
)

func TestMemPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendUints([]uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvUints()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if err := b.SendUint64s([]uint64{9, 10}); err != nil {
		t.Fatal(err)
	}
	g64, err := a.RecvUint64s()
	if err != nil {
		t.Fatal(err)
	}
	if g64[1] != 10 {
		t.Fatalf("got %v", g64)
	}
	if err := a.SendBytes([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	bs, err := b.RecvBytes()
	if err != nil || string(bs) != "hi" {
		t.Fatalf("bytes %q err %v", bs, err)
	}
}

func TestMemPipeShapeFrames(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendShape([]int{4, 3, 16, 16}); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvShape()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 4 || got[3] != 16 {
		t.Fatalf("shape %v", got)
	}
	// Empty shape (the end-of-session sentinel) round-trips too.
	if err := b.SendShape(nil); err != nil {
		t.Fatal(err)
	}
	empty, err := a.RecvShape()
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty shape: %v err %v", empty, err)
	}
	// A shape frame must not satisfy a data receive, and vice versa.
	if err := a.SendShape([]int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUint64s(); err == nil {
		t.Fatal("shape frame accepted as uint64 data")
	}
	if err := a.SendUint64s([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvShape(); err == nil {
		t.Fatal("uint64 frame accepted as shape")
	}
}

func TestShapeFrameLimits(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendShape(make([]int, shapeDims+1)); err == nil {
		t.Fatal("oversized shape rank must be rejected")
	}
	if err := a.SendShape([]int{-1}); err == nil {
		t.Fatal("negative dim must be rejected")
	}
}

func TestExchangeShapesSymmetric(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan []int, 1)
	go func() {
		got, err := ExchangeShapes(b, []int{2, 3})
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	got, err := ExchangeShapes(a, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	other := <-done
	if len(got) != 2 || got[0] != 2 || len(other) != 2 || other[0] != 0 {
		t.Fatalf("exchange shapes wrong: %v %v", got, other)
	}
}

func TestMemPipeCopiesPayload(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	buf := []uint32{42}
	if err := a.SendUints(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 7 // mutate after send; receiver must still see 42
	got, err := b.RecvUints()
	if err != nil || got[0] != 42 {
		t.Fatalf("payload aliased: %v err %v", got, err)
	}
}

func TestMemPipeKindMismatch(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendBytes([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUints(); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

func TestMemPipeEOFAfterClose(t *testing.T) {
	a, b := Pipe()
	a.Close()
	if _, err := b.RecvUints(); err == nil {
		t.Fatal("expected EOF after peer close")
	}
	b.Close()
}

func TestExchangeSymmetric(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var fromA []uint64
	var errB error
	go func() {
		defer wg.Done()
		fromA, errB = Exchange(b, []uint64{100})
	}()
	fromB, errA := Exchange(a, []uint64{200})
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("errs %v %v", errA, errB)
	}
	if fromB[0] != 100 || fromA[0] != 200 {
		t.Fatalf("exchange swapped: %v %v", fromA, fromB)
	}
}

func TestExchangeBytesSymmetric(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan []byte, 1)
	go func() {
		got, err := ExchangeBytes(b, []byte{2})
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	got, err := ExchangeBytes(a, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	other := <-done
	if got[0] != 2 || other[0] != 1 {
		t.Fatalf("exchange bytes wrong: %v %v", got, other)
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	addr := l.Addr().String()
	type acceptResult struct {
		conn net.Conn
		err  error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		c, err := l.Accept()
		acceptCh <- acceptResult{c, err}
	}()
	client, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ar := <-acceptCh
	if ar.err != nil {
		t.Fatal(ar.err)
	}
	l.Close()

	server := NewTCPConn(ar.conn)
	clientT := NewTCPConn(client)
	defer server.Close()
	defer clientT.Close()

	if err := clientT.SendUints([]uint32{7, 8}); err != nil {
		t.Fatal(err)
	}
	got, err := server.RecvUints()
	if err != nil || got[1] != 8 {
		t.Fatalf("tcp uint32: %v %v", got, err)
	}
	if err := server.SendUint64s([]uint64{1 << 40}); err != nil {
		t.Fatal(err)
	}
	g64, err := clientT.RecvUint64s()
	if err != nil || g64[0] != 1<<40 {
		t.Fatalf("tcp uint64: %v %v", g64, err)
	}
	if err := clientT.SendBytes([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	bs, err := server.RecvBytes()
	if err != nil || string(bs) != "abc" {
		t.Fatalf("tcp bytes: %q %v", bs, err)
	}
	if err := clientT.SendShape([]int{8, 3, 32, 32}); err != nil {
		t.Fatal(err)
	}
	sh, err := server.RecvShape()
	if err != nil || len(sh) != 4 || sh[0] != 8 || sh[3] != 32 {
		t.Fatalf("tcp shape: %v %v", sh, err)
	}
	// Exchange across TCP must not deadlock.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Exchange(server, make([]uint64, 1000)); err != nil {
			t.Error(err)
		}
	}()
	if _, err := Exchange(clientT, make([]uint64, 1000)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestModelShapeFrames(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendModelShape("resnet18", []int{1, 3, 16, 16}); err != nil {
		t.Fatal(err)
	}
	model, shape, err := b.RecvModelShape()
	if err != nil || model != "resnet18" || len(shape) != 4 || shape[1] != 3 {
		t.Fatalf("model %q shape %v err %v", model, shape, err)
	}
	// Empty model + empty shape is the end-of-stream sentinel.
	if err := a.SendModelShape("", nil); err != nil {
		t.Fatal(err)
	}
	model, shape, err = b.RecvModelShape()
	if err != nil || model != "" || len(shape) != 0 {
		t.Fatalf("sentinel: model %q shape %v err %v", model, shape, err)
	}
	// Oversized model identifiers are rejected at send time.
	if err := a.SendModelShape(string(make([]byte, maxModelIDLen+1)), nil); err == nil {
		t.Fatal("oversized model id must be rejected")
	}
	// A model+shape frame must not satisfy a plain shape receive.
	if err := a.SendModelShape("m", []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvShape(); err == nil {
		t.Fatal("model+shape frame accepted as plain shape")
	}
}

func TestReplyFrames(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendUint64s([]uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	vals, errMsg, err := b.RecvReply(2)
	if err != nil || errMsg != "" || len(vals) != 2 || vals[1] != 6 {
		t.Fatalf("data reply: %v %q %v", vals, errMsg, err)
	}
	if err := a.SendError("query shape mismatch"); err != nil {
		t.Fatal(err)
	}
	vals, errMsg, err = b.RecvReply(2)
	if err != nil || vals != nil || errMsg != "query shape mismatch" {
		t.Fatalf("error reply: %v %q %v", vals, errMsg, err)
	}
	// An empty message is substituted so an error frame is always
	// distinguishable from an empty data frame.
	if err := a.SendError(""); err != nil {
		t.Fatal(err)
	}
	if _, errMsg, err = b.RecvReply(2); err != nil || errMsg == "" {
		t.Fatalf("empty error reply: %q %v", errMsg, err)
	}
	// A data reply over the expected element bound is a protocol error.
	if err := a.SendUint64s(make([]uint64, 3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err = b.RecvReply(2); err == nil {
		t.Fatal("oversized data reply must be rejected")
	}
}

func TestRecvUint64sMaxBound(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendUint64s(make([]uint64, 8)); err != nil {
		t.Fatal(err)
	}
	if got, err := b.RecvUint64sMax(8); err != nil || len(got) != 8 {
		t.Fatalf("in-bound frame: %d err %v", len(got), err)
	}
	if err := a.SendUint64s(make([]uint64, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUint64sMax(8); err == nil {
		t.Fatal("over-bound frame must be rejected")
	}
}

// TestHostileHeaderRejectedBeforeAllocation is the bounded-receive
// regression test: a frame header claiming a huge payload must fail the
// bounded receive at header-validation time — before any payload-sized
// allocation or read — when the receiver knows the expected size.
func TestHostileHeaderRejectedBeforeAllocation(t *testing.T) {
	hostileHeader := func(kind byte, claim uint32) []byte {
		hdr := make([]byte, 5)
		hdr[0] = kind
		hdr[1] = byte(claim)
		hdr[2] = byte(claim >> 8)
		hdr[3] = byte(claim >> 16)
		hdr[4] = byte(claim >> 24)
		return hdr
	}
	for _, tc := range []struct {
		name string
		recv func(*TCPConn) error
	}{
		{"RecvUint64sMax", func(c *TCPConn) error {
			_, err := c.RecvUint64sMax(768) // a 1×3×16×16 query's element count
			return err
		}},
		{"RecvReply", func(c *TCPConn) error {
			_, _, err := c.RecvReply(768)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hostile, victim := net.Pipe()
			defer hostile.Close()
			defer victim.Close()
			// The attacker sends only the 5-byte header claiming ~1 GiB;
			// nothing else ever arrives. The bounded receive must error out
			// after the header alone — if it tried to allocate-and-read the
			// claimed payload it would block forever on this pipe (and a
			// hostile client would have forced a 1 GiB allocation).
			go hostile.Write(hostileHeader('U', 1<<30))
			err := tc.recv(NewTCPConn(victim))
			if err == nil {
				t.Fatal("hostile frame header must be rejected")
			}
		})
	}
}

func TestTCPModelShapeAndReplyFrames(t *testing.T) {
	nc1, nc2 := net.Pipe()
	a, b := NewTCPConn(nc1), NewTCPConn(nc2)
	defer a.Close()
	defer b.Close()
	go func() {
		_ = a.SendModelShape("cnn", []int{2, 3, 8, 8})
		_ = a.SendError("no such model")
		_ = a.SendUint64s([]uint64{11})
	}()
	model, shape, err := b.RecvModelShape()
	if err != nil || model != "cnn" || len(shape) != 4 || shape[0] != 2 {
		t.Fatalf("tcp model shape: %q %v %v", model, shape, err)
	}
	_, errMsg, err := b.RecvReply(4)
	if err != nil || errMsg != "no such model" {
		t.Fatalf("tcp error reply: %q %v", errMsg, err)
	}
	vals, errMsg, err := b.RecvReply(4)
	if err != nil || errMsg != "" || len(vals) != 1 || vals[0] != 11 {
		t.Fatalf("tcp data reply: %v %q %v", vals, errMsg, err)
	}
}

func TestTCPKindMismatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		tc := NewTCPConn(c)
		_ = tc.SendBytes([]byte{1})
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.RecvUints(); err == nil {
		t.Fatal("expected kind mismatch")
	}
}
