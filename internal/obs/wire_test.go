package obs

import (
	"net"
	"strings"
	"testing"
	"time"

	"pasnet/internal/transport"
)

// tcpPair returns the two endpoints of a loopback TCP link.
func tcpPair(t *testing.T) (transport.Conn, transport.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc, ok := <-accepted
	if !ok {
		client.Close()
		t.Fatal("accept failed")
	}
	return client, transport.NewTCPConn(nc)
}

// eachLink runs fn once over an in-memory pipe and once over loopback
// TCP: WireConn is the only traffic counter, so what it reports must not
// depend on the transport beneath it.
func eachLink(t *testing.T, fn func(t *testing.T, ca, cb transport.Conn)) {
	t.Run("pipe", func(t *testing.T) {
		ca, cb := transport.Pipe()
		fn(t, ca, cb)
	})
	t.Run("tcp", func(t *testing.T) {
		ca, cb := tcpPair(t)
		fn(t, ca, cb)
	})
}

// TestWireConnPerKindAccounting sends one frame of every kind through a
// wrapped link and checks both endpoints' per-kind byte and frame
// counters agree — the receive side mirrors the send side's payload
// conventions, so the two views of one link are symmetric.
func TestWireConnPerKindAccounting(t *testing.T) {
	eachLink(t, testWireConnPerKindAccounting)
}

func testWireConnPerKindAccounting(t *testing.T, ca, cb transport.Conn) {
	ra, rb := New(), New()
	a := InstrumentConn(ca, ra, "side", "a")
	b := InstrumentConn(cb, rb, "side", "b")
	defer a.Close()
	defer b.Close()

	if err := a.SendUints([]uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendUint64s([]uint64{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBytes([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := a.SendShape([]int{2, 3, 8, 8}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendModelShape("resnet18", []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUints(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUint64s(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvBytes(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvShape(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RecvModelShape(); err != nil {
		t.Fatal(err)
	}
	// Error frame through the reply path.
	if err := a.SendError("bad query"); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := b.RecvReply(8); err != nil || msg != "bad query" {
		t.Fatalf("reply %q err %v", msg, err)
	}
	// The transport substitutes a placeholder for an empty message and
	// clamps an oversized one; the sender must account what was carried,
	// not what was asked for.
	long := strings.Repeat("x", 2000)
	for _, msg := range []string{"", long} {
		if err := a.SendError(msg); err != nil {
			t.Fatal(err)
		}
		_, got, err := b.RecvReply(8)
		if err != nil || got != transport.ClampError(msg) {
			t.Fatalf("error frame for %d-byte message: got %d bytes, err %v", len(msg), len(got), err)
		}
	}
	clamped := int64(len(transport.ClampError("")) + len(transport.ClampError(long)))
	if clamped >= 2000 {
		t.Fatalf("clamp did not shorten the 2000-byte message (%d bytes carried)", clamped)
	}
	// Successful reply through the same path.
	if err := a.SendUint64s([]uint64{7}); err != nil {
		t.Fatal(err)
	}
	if vals, msg, err := b.RecvReply(8); err != nil || msg != "" || len(vals) != 1 {
		t.Fatalf("reply vals %v msg %q err %v", vals, msg, err)
	}

	wantBytes := map[string]int64{
		"u32":   12,        // 3 × 4
		"u64":   16 + 8,    // [4 5] + the reply [7]
		"bytes": 5,         // "hello"
		"shape": 16,        // 4 dims × 4
		"model": 1 + 8 + 8, // len byte + "resnet18" + 2 dims × 4
		"err":   int64(len("bad query")) + clamped,
	}
	wantFrames := map[string]int64{"u32": 1, "u64": 2, "bytes": 1, "shape": 1, "model": 1, "err": 3}
	for kind, want := range wantBytes {
		if got := ra.Counter("pasnet_wire_sent_bytes_total", "side", "a", "kind", kind).Load(); got != want {
			t.Fatalf("a sent %s bytes %d, want %d", kind, got, want)
		}
		if got := rb.Counter("pasnet_wire_recv_bytes_total", "side", "b", "kind", kind).Load(); got != want {
			t.Fatalf("b recv %s bytes %d, want %d (mirror of a's sends)", kind, got, want)
		}
	}
	for kind, want := range wantFrames {
		if got := ra.Counter("pasnet_wire_sent_frames_total", "side", "a", "kind", kind).Load(); got != want {
			t.Fatalf("a sent %s frames %d, want %d", kind, got, want)
		}
		if got := rb.Counter("pasnet_wire_recv_frames_total", "side", "b", "kind", kind).Load(); got != want {
			t.Fatalf("b recv %s frames %d, want %d", kind, got, want)
		}
	}
	// The pure sender never flipped send→recv; the pure receiver never
	// sent at all. Neither completes a round.
	if got := a.Rounds(); got != 0 {
		t.Fatalf("sender-only conn counted %d rounds", got)
	}
	if got := b.Rounds(); got != 0 {
		t.Fatalf("receiver-only conn counted %d rounds", got)
	}
	// Nothing was received on a or sent on b.
	for _, kind := range []string{"u32", "u64", "bytes", "shape", "model", "err"} {
		if got := ra.Counter("pasnet_wire_recv_bytes_total", "side", "a", "kind", kind).Load(); got != 0 {
			t.Fatalf("a recv %s bytes %d, want 0", kind, got)
		}
		if got := rb.Counter("pasnet_wire_sent_bytes_total", "side", "b", "kind", kind).Load(); got != 0 {
			t.Fatalf("b sent %s bytes %d, want 0", kind, got)
		}
	}
}

// TestWireConnRounds pins the round semantics: a round completes on each
// send→recv direction flip, so N request/reply exchanges count N rounds
// on the requester, and a burst of sends before one receive still counts
// one round.
func TestWireConnRounds(t *testing.T) {
	reg := New()
	ca, cb := transport.Pipe()
	a := InstrumentConn(ca, reg, "side", "a")
	defer a.Close()
	defer cb.Close()

	const exchanges = 3
	for i := 0; i < exchanges; i++ {
		// Burst: two sends in one direction are one protocol round.
		if err := a.SendUint64s([]uint64{1}); err != nil {
			t.Fatal(err)
		}
		if err := a.SendUint64s([]uint64{2}); err != nil {
			t.Fatal(err)
		}
		if _, err := cb.RecvUint64s(); err != nil {
			t.Fatal(err)
		}
		if _, err := cb.RecvUint64s(); err != nil {
			t.Fatal(err)
		}
		if err := cb.SendUint64s([]uint64{3}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.RecvUint64s(); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Rounds(); got != exchanges {
		t.Fatalf("rounds %d, want %d", got, exchanges)
	}
	// Consecutive receives do not add rounds.
	if err := cb.SendUint64s([]uint64{4}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvUint64s(); err != nil {
		t.Fatal(err)
	}
	if got := a.Rounds(); got != exchanges {
		t.Fatalf("recv-after-recv bumped rounds to %d, want %d", got, exchanges)
	}
}

// TestWireConnTotals pins what the summed counters mean, on both
// transports: a frame counts for the sender once its send succeeded and
// for the receiver only at delivery, and the two endpoints of a link
// report mirror-image totals.
func TestWireConnTotals(t *testing.T) {
	eachLink(t, func(t *testing.T, ca, cb transport.Conn) {
		a, b := InstrumentConn(ca, nil), InstrumentConn(cb, nil)
		defer a.Close()
		defer b.Close()
		if a.Inner() != ca {
			t.Fatal("Inner() does not return the wrapped conn")
		}
		if err := a.SendUints(make([]uint32, 10)); err != nil {
			t.Fatal(err)
		}
		if err := a.SendUint64s(make([]uint64, 3)); err != nil {
			t.Fatal(err)
		}
		if err := a.SendBytes(make([]byte, 5)); err != nil {
			t.Fatal(err)
		}
		sent := WireTotals{SentBytes: 40 + 24 + 5, SentFrames: 3}
		if got := a.Totals(); got != sent {
			t.Fatalf("sender totals %+v, want %+v", got, sent)
		}
		// Frames sit in the link until the peer takes delivery.
		if got := b.Totals(); got != (WireTotals{}) {
			t.Fatalf("receiver totals before delivery: %+v", got)
		}
		if _, err := b.RecvUints(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.RecvUint64s(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.RecvBytes(); err != nil {
			t.Fatal(err)
		}
		if got, want := b.Totals(), (WireTotals{RecvBytes: sent.SentBytes, RecvFrames: 3}); got != want {
			t.Fatalf("receiver totals %+v, want the sender's mirror %+v", got, want)
		}
		if got := a.Totals(); got != sent {
			t.Fatalf("delivery changed the sender's totals: %+v", got)
		}
		// Traffic the other way lands on the other pair of counters.
		if err := b.SendUint64s(make([]uint64, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.RecvUint64sMax(2); err != nil {
			t.Fatal(err)
		}
		at, bt := a.Totals(), b.Totals()
		if at.RecvBytes != bt.SentBytes || at.RecvFrames != bt.SentFrames ||
			bt.RecvBytes != at.SentBytes || bt.RecvFrames != at.SentFrames {
			t.Fatalf("endpoints do not mirror each other: a %+v, b %+v", at, bt)
		}
	})
}

// TestWireConnCountsOnlyDeliveredFrames covers the failure edges: a
// frame the peer buffered before closing still counts when it is
// drained, the EOF after it does not, and a send that fails — on a
// closed endpoint or at an expired write deadline — is not traffic.
func TestWireConnCountsOnlyDeliveredFrames(t *testing.T) {
	eachLink(t, func(t *testing.T, ca, cb transport.Conn) {
		a, b := InstrumentConn(ca, nil), InstrumentConn(cb, nil)
		defer b.Close()
		if err := a.SetWriteDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Fatal(err)
		}
		if err := a.SendUints([]uint32{1}); err == nil {
			t.Fatal("send past the write deadline succeeded")
		}
		if got := a.Totals(); got != (WireTotals{}) {
			t.Fatalf("deadline-failed send counted as traffic: %+v", got)
		}
		if err := a.SetWriteDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
		if err := a.SendUints(make([]uint32, 4)); err != nil {
			t.Fatal(err)
		}
		a.Close()
		if err := a.SendUints([]uint32{1}); err == nil {
			t.Fatal("send on a closed endpoint succeeded")
		}
		if got, want := a.Totals(), (WireTotals{SentBytes: 16, SentFrames: 1}); got != want {
			t.Fatalf("sender totals %+v, want %+v (failed sends must not count)", got, want)
		}
		if _, err := b.RecvUints(); err != nil {
			t.Fatalf("frame buffered before the peer closed was not delivered: %v", err)
		}
		drained := WireTotals{RecvBytes: 16, RecvFrames: 1}
		if got := b.Totals(); got != drained {
			t.Fatalf("drained frame: totals %+v, want %+v", got, drained)
		}
		if _, err := b.RecvUints(); err == nil {
			t.Fatal("expected EOF after drain")
		}
		if got := b.Totals(); got != drained {
			t.Fatalf("EOF counted as a received frame: %+v", got)
		}
	})
}
