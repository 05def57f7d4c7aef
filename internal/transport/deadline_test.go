package transport

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestMemConnSendAfterClose is the send-on-closed-channel regression test:
// every send entry point on a closed endpoint must return an error
// satisfying errors.Is(err, io.ErrClosedPipe) — the old implementation
// closed the frame channel and panicked here instead.
func TestMemConnSendAfterClose(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	a.Close()
	a.Close() // Close stays idempotent
	sends := map[string]func() error{
		"SendUints":      func() error { return a.SendUints([]uint32{1}) },
		"SendUint64s":    func() error { return a.SendUint64s([]uint64{1}) },
		"SendBytes":      func() error { return a.SendBytes([]byte{1}) },
		"SendShape":      func() error { return a.SendShape([]int{1}) },
		"SendModelShape": func() error { return a.SendModelShape("m", []int{1}) },
		"SendError":      func() error { return a.SendError("boom") },
	}
	for name, send := range sends {
		if err := send(); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("%s after Close: err = %v, want io.ErrClosedPipe", name, err)
		}
	}
}

// TestMemConnSendToClosedPeer pins the direction-oriented close semantics
// graceful teardown relies on: with room in the pipe, sends still succeed
// after the peer closed (the peer drains and sees EOF at its own pace),
// but a send *blocked* on a full pipe unblocks with io.ErrClosedPipe when
// the peer closes — no reader will ever free a slot, and the old
// implementation wedged that sender forever.
func TestMemConnSendToClosedPeer(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	b.Close()
	if err := a.SendUint64s([]uint64{1}); err != nil {
		t.Fatalf("buffered send after peer close must succeed: %v", err)
	}

	a2, b2 := Pipe()
	defer a2.Close()
	defer b2.Close()
	fillMemPipe(t, a2)
	done := make(chan error, 1)
	go func() { done <- a2.SendUint64s([]uint64{1}) }() // blocks: pipe full, no deadline
	time.Sleep(10 * time.Millisecond)
	b2.Close()
	select {
	case err := <-done:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("blocked send on peer close: err = %v, want io.ErrClosedPipe", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send wedged after peer close")
	}
}

// TestMemConnCloseRacesConcurrentSends hammers Close against in-flight
// sends from many goroutines. Run under -race this pins the core claim of
// the close redesign: no send-on-closed-channel panic window, every send
// either delivers or returns io.ErrClosedPipe.
func TestMemConnCloseRacesConcurrentSends(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		a, b := Pipe()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					if err := a.SendUint64s([]uint64{uint64(i)}); err != nil {
						if !errors.Is(err, io.ErrClosedPipe) {
							t.Errorf("concurrent send: err = %v, want io.ErrClosedPipe", err)
						}
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Close()
		}()
		wg.Wait()
		b.Close()
	}
}

// TestMemConnEOFAfterCloseDrainsBuffered: frames buffered before the peer
// closed are still delivered, then receives report EOF — the close signal
// must not eat in-flight data.
func TestMemConnEOFAfterCloseDrainsBuffered(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	if err := a.SendUint64s([]uint64{7}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.RecvUint64s()
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("buffered frame lost across close: %v err %v", got, err)
	}
	if _, err := b.RecvUint64s(); err != io.EOF {
		t.Fatalf("after drain: err = %v, want io.EOF", err)
	}
}

// fillMemPipe saturates a MemConn's send buffer (the peer never reads), so
// the next send would block forever without a write deadline. A short
// deadline doubles as the full-buffer detector; it is cleared again before
// returning.
func fillMemPipe(t *testing.T, c *MemConn) {
	t.Helper()
	if err := c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<20; i++ {
		if err := c.SendUint64s([]uint64{1}); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("filling pipe: err = %v", err)
			}
			if err := c.SetWriteDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("pipe never filled")
}

// TestMemConnWriteDeadline pins net.Conn deadline semantics on the send
// path: an armed deadline bounds a send blocked on a full pipe, an
// already-expired deadline fails sends immediately, and the zero time
// clears it.
func TestMemConnWriteDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	fillMemPipe(t, a)
	if err := a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := a.SendUint64s([]uint64{2})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("send on full pipe: err = %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline-bounded send took %v", elapsed)
	}
	if err := a.SetWriteDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := a.SendUint64s([]uint64{3}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want os.ErrDeadlineExceeded", err)
	}
	// Clearing the deadline restores ordinary sends once the peer drains.
	if err := a.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUint64s(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendUint64s([]uint64{4}); err != nil {
		t.Fatalf("send after clear: %v", err)
	}
}

// TestExchangeStalledReader is the transport-wedge regression test: the
// peer accepts the connection but never reads, so this party's receive
// times out while its send goroutine is still blocked on backpressure.
// Exchange must return within the armed deadlines — on the old code (no
// write deadline) it wedged forever waiting for its send goroutine, even
// though the receive had already failed. net.Pipe is fully synchronous
// (every write blocks until read), the harshest version of a stalled
// reader a TCPConn can meet.
func TestExchangeStalledReader(t *testing.T) {
	nc, stalled := net.Pipe()
	defer stalled.Close() // accepts, then never reads
	c := NewTCPConn(nc)
	defer c.Close()
	dl := time.Now().Add(50 * time.Millisecond)
	if err := c.SetReadDeadline(dl); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteDeadline(dl); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Exchange(c, make([]uint64, 4096))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stalled exchange: err = %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange wedged on a stalled reader despite write deadline")
	}
}

// TestExchangeStalledReaderMemConn is the same wedge on the in-memory
// transport: the pipe's buffer is pre-filled so Exchange's send blocks,
// and the silent peer trips the read deadline.
func TestExchangeStalledReaderMemConn(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close() // never reads
	fillMemPipe(t, a)
	dl := time.Now().Add(50 * time.Millisecond)
	if err := a.SetReadDeadline(dl); err != nil {
		t.Fatal(err)
	}
	if err := a.SetWriteDeadline(dl); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Exchange(a, []uint64{1})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stalled exchange: err = %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange wedged on a full pipe despite write deadline")
	}
}
