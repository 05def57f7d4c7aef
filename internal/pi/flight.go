package pi

import (
	"fmt"
	"time"

	"pasnet/internal/mpc"
	"pasnet/internal/tensor"
)

// This file splits party 1's flush into its protocol phases so a
// pipelined scheduler (internal/sched) can overlap one flush's output
// reconstruction with the next flush's announce on the same session pair.
// The phases of one Flight must run in order —
//
//	BeginQuery → Evaluate → SendResult → RecvPeerShare → Result
//
// — and Session.Query is exactly their composition, so a serialized and a
// pipelined schedule produce bit-identical logits: the dealer stream is
// only consumed inside BeginQuery and Evaluate, which a pipelined
// scheduler still runs strictly in flush order; SendResult/RecvPeerShare
// carry plain reveal halves whose values are schedule-independent.
//
// The query is not secret-shared by a frame of its own: party 1's share is
// the encoded query itself and party 0's is zeros (Session.ServeOne), so the
// program's first linear op sends the only frame that carries it,
// E' = X − a. A trivial sharing reveals nothing, whatever the program's
// first op is, because every frame party 1 sends is masked by dealer
// material party 0 does not hold: the activation mask a of a linear op,
// party 1's half of a square pair's a, its AND- and selector-triple
// operands, and the reveal, which opens only the logits both parties
// learn anyway.
//
// The party-0 peer needs no matching change: its serialized serve loop
// sends its reveal half and then negotiates the next flush, which is the
// same per-direction wire order a pipelined party 1 produces. The one
// obligation a pipelined caller takes on is receive ordering — flush n's
// RecvPeerShare must complete before flush n+1 performs any receive on
// the connection, because the transport demultiplexes frames strictly in
// order (sched.PipelinedSession enforces this with a turn baton).

// Flight is one flush in progress on a party-1 Session.
type Flight struct {
	s     *Session
	shape []int
	// src is the announce phase's resolved correlation source stamp,
	// validated against the peer's in Confirm.
	src  *sourceStamp
	xs   mpc.Share
	out  mpc.Share
	vals []uint64
	// ingestSec accumulates the announce half's duration so the ingest
	// span covers announce+confirm work without counting the pipelined
	// scheduler's turn-baton wait that sits between the two halves.
	ingestSec float64
}

// BeginQuery runs the ingest phase of one flush from party 1's side —
// the announce half (send the shape frame and the source stamp) composed
// with the confirm half (receive and validate the peer's). The returned
// Flight carries party 1's input share, the encoded query, into Evaluate.
func (s *Session) BeginQuery(x *tensor.Tensor) (*Flight, error) {
	f, err := s.QueryAnnounce(x)
	if err != nil {
		return nil, err
	}
	if err := f.Confirm(); err != nil {
		return nil, err
	}
	return f, nil
}

// QueryAnnounce runs the send half of the ingest phase: transmit this
// flush's shape frame and correlation-source stamp, performing no receive
// at all, and encode the query as party 1's input share (see the file
// comment: the query itself crosses the wire only masked, inside the
// first linear op). A pipelined scheduler calls it while the previous
// flush's reveal receive is still in flight — these sends are what
// genuinely overlap that wire wait — and gates Confirm behind the
// receive-order baton. The values are bit-identical to the serialized
// order: the stamp reads the same store cursor (the previous flush's
// evaluation has completed before a scheduler may announce the next).
func (s *Session) QueryAnnounce(x *tensor.Tensor) (*Flight, error) {
	if s.party.ID != 1 {
		return nil, fmt.Errorf("pi: QueryAnnounce is party 1's side; party 0 serves")
	}
	var t0 time.Time
	if s.spans != nil {
		t0 = time.Now()
	}
	// Each announce re-arms the flush deadline; party 1 performs no
	// receive outside a flush, so the deadline never fires while idle. In
	// a pipelined schedule the previous flush's deferred reveal receive
	// inherits the extension, which only ever grants it more time.
	s.armDeadline()
	if err := s.party.Conn.SendShape(x.Shape); err != nil {
		return nil, fmt.Errorf("pi: shape negotiation: %w", err)
	}
	src, err := s.announceSource(x.Shape)
	if err != nil {
		return nil, err
	}
	xs := mpc.Share{Shape: append([]int(nil), x.Shape...), V: s.party.EncodeTensor(x.Data)}
	f := &Flight{s: s, shape: x.Shape, src: src, xs: xs}
	if s.spans != nil {
		f.ingestSec = time.Since(t0).Seconds()
	}
	return f, nil
}

// Confirm runs the receive half of the ingest phase: take the peer's
// shape frame and source stamp, validate both, and install the flush's
// correlation source. It performs the flush's first receives, so a
// pipelined scheduler must order it after the previous flush's
// RecvPeerShare.
func (f *Flight) Confirm() error {
	var t0 time.Time
	if f.s.spans != nil {
		t0 = time.Now()
	}
	theirs, err := f.s.party.Conn.RecvShape()
	if err != nil {
		return fmt.Errorf("pi: shape negotiation: %w", err)
	}
	if err := CheckShape(f.shape, theirs); err != nil {
		return err
	}
	if err := f.s.confirmSource(f.src, f.shape); err != nil {
		return err
	}
	if f.s.spans != nil {
		f.s.spans.Ingest.Observe(f.ingestSec + time.Since(t0).Seconds())
	}
	return nil
}

// Evaluate runs the evaluate phase: the compiled program's interactive
// protocol rounds over the input share.
func (f *Flight) Evaluate() error {
	var t0 time.Time
	if f.s.spans != nil {
		t0 = time.Now()
	}
	out, err := f.s.eng.Infer(f.xs)
	if err != nil {
		return err
	}
	f.out = out
	if f.s.spans != nil {
		f.s.spans.Evaluate.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// SendResult transmits this party's output reveal half — the first half
// of the reconstruct phase. After it returns, the session may begin the
// next flush's ingest, provided this flight's RecvPeerShare stays first
// in the connection's receive order.
func (f *Flight) SendResult() error {
	if f.s.spans == nil {
		return f.s.party.RevealSend(f.out)
	}
	t0 := time.Now()
	err := f.s.party.RevealSend(f.out)
	if err == nil {
		f.s.spans.RevealSend.Observe(time.Since(t0).Seconds())
	}
	return err
}

// RecvPeerShare receives the peer's reveal half and reconstructs the ring
// output — the flush's final receive on the connection.
func (f *Flight) RecvPeerShare() error {
	var t0 time.Time
	if f.s.spans != nil {
		t0 = time.Now()
	}
	vals, err := f.s.party.RevealRecv(f.out)
	if err != nil {
		return err
	}
	f.vals = vals
	if f.s.spans != nil {
		f.s.spans.RevealRecv.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// Result decodes the reconstructed flat batched logits. It is local (no
// connection use), so a pipelined scheduler runs it concurrently with the
// next flush.
func (f *Flight) Result() []float64 {
	if f.s.spans == nil {
		return f.s.party.DecodeTensor(f.vals)
	}
	t0 := time.Now()
	out := f.s.party.DecodeTensor(f.vals)
	f.s.spans.Decode.Observe(time.Since(t0).Seconds())
	return out
}
