// Package sched is the adaptive dispatch scheduler between the gateway's
// router and the per-shard pi.Session stack: a Dispatcher owns one bounded
// work queue per (model, shard) and picks shards by queue depth and EWMA
// flush latency instead of blind round-robin, each lane's worker running
// its flushes one after another on a SerializedSession; and a Lifecycle
// moves a shard pair to a fresh generation — re-dialing dead pairs with
// backoff instead of retiring them for the deployment's lifetime
// (quarantining pairs that keep dying), and rolling live pairs over
// before their preprocessed stores run dry.
package sched

import (
	"pasnet/internal/pi"
	"pasnet/internal/tensor"
)

// FlushSession is one shard's serving session as the dispatcher drives it.
// BeginFlush runs one packed batch and returns a wait for the
// reconstructed logits, which the lane's worker calls as soon as
// BeginFlush returns. BeginFlush is not safe for concurrent use — the
// dispatcher's per-shard worker is the single caller.
type FlushSession interface {
	BeginFlush(batch *tensor.Tensor) (wait func() ([]float64, error), err error)
	// RemainingBudget is the shard's preprocessed-correlation budget from
	// the latest source-stamp round (-1: live dealer / unknown).
	RemainingBudget() int
	// Fallbacks counts flushes degraded to the live dealer.
	Fallbacks() int
	// Close ends the session gracefully: send the end-of-session sentinel
	// and release the link.
	Close() error
	// Kill releases the link of a poisoned pair without protocol
	// pleasantries (the peer is dead or desynced; a sentinel would hang
	// or confuse it).
	Kill()
}

// closer is the link-release half of a session (transport.Conn satisfies
// it; tests substitute stubs).
type closer interface{ Close() error }

// SerializedSession adapts a pi.Session to FlushSession: every flush runs
// ingest, evaluate and reconstruct end to end (pi.Session.Query) before
// BeginFlush returns.
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
