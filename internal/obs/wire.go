package obs

import (
	"slices"
	"sync/atomic"
	"time"

	"pasnet/internal/transport"
)

const numWireKinds = len(transport.Kinds)

// kindIndex is a frame kind's counter index: its position in
// transport.Kinds.
func kindIndex(k byte) int {
	if i := slices.Index(transport.Kinds[:], k); i >= 0 {
		return i
	}
	return slices.Index(transport.Kinds[:], transport.KindBytes) // unknown kinds accounted as opaque bytes
}

// typedConn names the Conn a WireConn embeds for its typed methods.
type typedConn = transport.Conn

// Direction markers for round counting.
const (
	dirNone int32 = iota
	dirSend
	dirRecv
)

// WireConn wraps a transport.Conn and accounts traffic on a registry at
// the frame: it is a transport.Link over the wrapped conn's typed methods
// (transport.AsLink), and its own typed methods are transport.NewConn's
// over itself. It counts payload bytes and frames per frame kind in both
// directions (pasnet_wire_{sent,recv}_{bytes,frames}_total{kind=...}),
// plus protocol rounds (pasnet_wire_rounds_total) — a round completes
// each time the link's direction flips from sending to receiving, so a
// request/reply pair counts one round and a batched flush of many sends
// followed by one receive also counts one.
//
// Byte counts are the frame's payload size on the wire
// (transport.Frame.Len: 4 bytes per uint32, 8 per uint64, the encoded
// length of byte/shape/model/error frames), so the two endpoints of a
// link report symmetric totals.
//
// The concurrent send+recv transport.Exchange runs makes the
// direction flip racy for that pattern; the count remains a faithful
// lower bound and is exact for the strictly alternating request/reply
// protocol the serving loops speak.
type WireConn struct {
	typedConn // the typed methods, over this conn's own frames

	inner transport.Conn
	link  transport.Link

	sentBytes  [numWireKinds]*Counter
	sentFrames [numWireKinds]*Counter
	recvBytes  [numWireKinds]*Counter
	recvFrames [numWireKinds]*Counter
	rounds     *Counter

	lastDir atomic.Int32
}

// InstrumentConn wraps c so its traffic lands on r's wire counters,
// with the given extra label pairs (e.g. "model", m, "shard", s)
// attached to every series. Safe on a nil registry: the counters
// still count, they are just not exported anywhere.
func InstrumentConn(c transport.Conn, r *Registry, labels ...string) *WireConn {
	w := &WireConn{inner: c, link: transport.AsLink(c)}
	w.typedConn = transport.NewConn(w)
	mk := func(name, kind string) *Counter {
		ls := append(append(make([]string, 0, len(labels)+2), labels...), "kind", kind)
		return r.Counter(name, ls...)
	}
	for i, k := range transport.Kinds {
		kind := transport.KindName(k)
		w.sentBytes[i] = mk("pasnet_wire_sent_bytes_total", kind)
		w.sentFrames[i] = mk("pasnet_wire_sent_frames_total", kind)
		w.recvBytes[i] = mk("pasnet_wire_recv_bytes_total", kind)
		w.recvFrames[i] = mk("pasnet_wire_recv_frames_total", kind)
	}
	w.rounds = r.Counter("pasnet_wire_rounds_total", labels...)
	return w
}

// Inner returns the wrapped connection.
func (w *WireConn) Inner() transport.Conn { return w.inner }

// Rounds returns the protocol round count so far.
func (w *WireConn) Rounds() int64 { return w.rounds.Load() }

// WireTotals is one endpoint's traffic summed over frame kinds. Byte
// counts are payload bytes (framing headers excluded), so the two
// endpoints of a healthy link report mirror-image totals.
type WireTotals struct {
	SentBytes, SentFrames int64
	RecvBytes, RecvFrames int64
}

// Totals sums the per-kind counters. It reads this connection's own
// counters, so on a registry whose labels several connections share
// (a lane's generations) it reports the series' total, not this link's.
func (w *WireConn) Totals() WireTotals {
	var t WireTotals
	for i := 0; i < numWireKinds; i++ {
		t.SentBytes += w.sentBytes[i].Load()
		t.SentFrames += w.sentFrames[i].Load()
		t.RecvBytes += w.recvBytes[i].Load()
		t.RecvFrames += w.recvFrames[i].Load()
	}
	return t
}

func (w *WireConn) noteSend(kind byte, payloadBytes int) {
	i := kindIndex(kind)
	w.sentBytes[i].Add(int64(payloadBytes))
	w.sentFrames[i].Inc()
	w.lastDir.Store(dirSend)
}

func (w *WireConn) noteRecv(kind byte, payloadBytes int) {
	i := kindIndex(kind)
	w.recvBytes[i].Add(int64(payloadBytes))
	w.recvFrames[i].Inc()
	if w.lastDir.Swap(dirRecv) == dirSend {
		w.rounds.Inc()
	}
}

// WriteFrame implements transport.Link.
func (w *WireConn) WriteFrame(f transport.Frame) error {
	err := w.link.WriteFrame(f)
	if err == nil {
		w.noteSend(f.Kind, f.Len())
	}
	return err
}

// ReadFrame implements transport.Link.
func (w *WireConn) ReadFrame(want byte, maxElems int) (transport.Frame, error) {
	f, err := w.link.ReadFrame(want, maxElems)
	if err == nil {
		w.noteRecv(f.Kind, f.Len())
	}
	return f, err
}

// SetReadDeadline implements transport.Link.
func (w *WireConn) SetReadDeadline(t time.Time) error { return w.inner.SetReadDeadline(t) }

// SetWriteDeadline implements transport.Link.
func (w *WireConn) SetWriteDeadline(t time.Time) error { return w.inner.SetWriteDeadline(t) }

// Close implements transport.Link.
func (w *WireConn) Close() error { return w.inner.Close() }
