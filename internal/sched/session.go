// Package sched is the adaptive dispatch scheduler between the gateway's
// router and the per-shard pi.Session stack: a Dispatcher owns one bounded
// work queue per (model, shard) and picks shards by queue depth and EWMA
// flush latency instead of blind round-robin; a PipelinedSession overlaps
// one flush's output reconstruction with the next flush's input sharing on
// the same session pair (double-buffered, bit-identical to the serialized
// schedule); and a Lifecycle moves a shard pair to a fresh generation —
// re-dialing dead pairs with backoff instead of retiring them for the
// deployment's lifetime (quarantining pairs that keep dying), and rolling
// live pairs over before their preprocessed stores run dry.
package sched

import (
	"fmt"
	"sync"

	"pasnet/internal/pi"
	"pasnet/internal/tensor"
)

// FlushSession is one shard's serving session as the dispatcher drives it.
// BeginFlush runs one packed batch far enough that the session can accept
// the next flush, and returns a wait for the reconstructed logits: a
// serialized session completes the whole flush inside BeginFlush, while a
// pipelined session returns after the evaluate phase and overlaps the
// reconstruction with the next flush's ingest. BeginFlush is not safe for
// concurrent use — the dispatcher's per-shard worker is the single caller.
type FlushSession interface {
	BeginFlush(batch *tensor.Tensor) (wait func() ([]float64, error), err error)
	// RemainingBudget is the shard's preprocessed-correlation budget from
	// the latest source-stamp round (-1: live dealer / unknown).
	RemainingBudget() int
	// Fallbacks counts flushes degraded to the live dealer.
	Fallbacks() int
	// Close ends the session gracefully: drain any in-flight flush, send
	// the end-of-session sentinel, release the link.
	Close() error
	// Kill releases the link of a poisoned pair without protocol
	// pleasantries (the peer is dead or desynced; a sentinel would hang
	// or confuse it).
	Kill()
}

// closer is the link-release half of a session (transport.Conn satisfies
// it; tests substitute stubs).
type closer interface{ Close() error }

// SerializedSession adapts a pi.Session to FlushSession with the classic
// schedule: every flush runs ingest, evaluate and reconstruct end to end
// before BeginFlush returns.
type SerializedSession struct {
	sess *pi.Session
	conn closer
}

// NewSerializedSession wraps an established party-1 session and the link
// to release on Close/Kill.
func NewSerializedSession(sess *pi.Session, conn closer) *SerializedSession {
	return &SerializedSession{sess: sess, conn: conn}
}

// BeginFlush implements FlushSession.
func (ss *SerializedSession) BeginFlush(batch *tensor.Tensor) (func() ([]float64, error), error) {
	logits, err := ss.sess.Query(batch)
	if err != nil {
		return nil, err
	}
	return func() ([]float64, error) { return logits, nil }, nil
}

// RemainingBudget implements FlushSession.
func (ss *SerializedSession) RemainingBudget() int { return ss.sess.RemainingBudget() }

// Fallbacks implements FlushSession.
func (ss *SerializedSession) Fallbacks() int { return ss.sess.Fallbacks() }

// Close implements FlushSession.
func (ss *SerializedSession) Close() error {
	err := ss.sess.Close()
	ss.conn.Close()
	return err
}

// Kill implements FlushSession.
func (ss *SerializedSession) Kill() { ss.conn.Close() }

// PipelinedSession runs the phase-split flush schedule: BeginFlush runs
// ingest (shape/source negotiation, input sharing) and evaluate, sends
// this party's reveal half, and returns — the peer-share receive, the
// reconstruction and the logit decode run on a completer goroutine while
// the next BeginFlush proceeds. Double buffering depth is one: at most
// one flush's reconstruction is in flight behind the flush being
// evaluated, which is exactly the protocol round the serialized schedule
// leaves on the table.
//
// Correctness rests on two invariants. Ordering: the transport
// demultiplexes frames strictly in order, so flush n's deferred
// peer-share receive must complete before flush n+1 performs any receive
// — the turn baton enforces it (BeginFlush n+1 blocks on flush n's
// completer having received). Determinism: the dealer stream and the
// private mask RNG are consumed only inside ingest and evaluate, which
// still run strictly in flush order, so pipelined logits are bit-identical
// to serialized ones — the equivalence suite pins this on both sourcing
// paths. The party-0 peer serves its ordinary serialized loop: the
// per-direction wire order a pipelined party 1 produces is
// indistinguishable from a serialized one's.
type PipelinedSession struct {
	sess *pi.Session
	conn closer

	// mu serializes BeginFlush/Close (the ingest+evaluate phases).
	mu sync.Mutex
	// turn is closed when the previous flush's peer share has been
	// received — the receive-order baton. Starts closed.
	turn chan struct{}

	emu sync.Mutex
	err error
}

// NewPipelinedSession wraps an established party-1 session and the link
// to release on Close/Kill.
func NewPipelinedSession(sess *pi.Session, conn closer) *PipelinedSession {
	turn := make(chan struct{})
	close(turn)
	return &PipelinedSession{sess: sess, conn: conn, turn: turn}
}

// poison records the session's first terminal error. A 2PC session is a
// lockstep two-party program, so any phase failure poisons the pair for
// good — there is no flush-level recovery, only shard-level revival.
func (ps *PipelinedSession) poison(err error) {
	ps.emu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.emu.Unlock()
}

func (ps *PipelinedSession) poisoned() error {
	ps.emu.Lock()
	defer ps.emu.Unlock()
	return ps.err
}

// BeginFlush implements FlushSession with the pipelined schedule.
func (ps *PipelinedSession) BeginFlush(batch *tensor.Tensor) (func() ([]float64, error), error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.poisoned(); err != nil {
		return nil, err
	}
	// Announce first — the flush's shape frame, source stamp and input
	// share are pure sends, so they go out while the previous flush's
	// reveal receive is still in flight. This is the protocol round the
	// pipeline hides: the serialized schedule cannot start these sends
	// until the previous reveal has fully arrived.
	f, err := ps.sess.QueryAnnounce(batch)
	if err != nil {
		ps.poison(err)
		return nil, err
	}
	// Wait for the previous flush's receive turn to finish, so this
	// flush's ingest receives cannot steal the peer's reveal frame.
	<-ps.turn
	if err := ps.poisoned(); err != nil {
		return nil, err
	}
	if err := f.Confirm(); err != nil {
		ps.poison(err)
		return nil, err
	}
	if err := f.Evaluate(); err != nil {
		ps.poison(err)
		return nil, err
	}
	if err := f.SendResult(); err != nil {
		ps.poison(err)
		return nil, err
	}
	turn := make(chan struct{})
	ps.turn = turn
	res := make(chan flushResult, 1)
	go func() {
		// The receive itself must finish before the baton passes; the
		// reconstruction and decode are local and overlap the next flush.
		err := f.RecvPeerShare()
		if err != nil {
			ps.poison(err)
		}
		close(turn)
		if err != nil {
			res <- flushResult{err: err}
			return
		}
		res <- flushResult{logits: f.Result()}
	}()
	return func() ([]float64, error) {
		r := <-res
		return r.logits, r.err
	}, nil
}

type flushResult struct {
	logits []float64
	err    error
}

// RemainingBudget implements FlushSession.
func (ps *PipelinedSession) RemainingBudget() int { return ps.sess.RemainingBudget() }

// Fallbacks implements FlushSession.
func (ps *PipelinedSession) Fallbacks() int { return ps.sess.Fallbacks() }

// Close implements FlushSession: waits out the last flush's receive turn,
// then sends the end-of-session sentinel (unless the pair is already
// poisoned, in which case the peer is past listening) and releases the
// link.
func (ps *PipelinedSession) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	<-ps.turn
	var err error
	if ps.poisoned() == nil {
		err = ps.sess.Close()
	}
	ps.conn.Close()
	return err
}

// Kill implements FlushSession.
func (ps *PipelinedSession) Kill() {
	ps.poison(fmt.Errorf("sched: session killed"))
	ps.conn.Close()
}
