package pi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// This file implements the batched multi-query pipeline: K independent
// client queries are packed into one N=K NCHW share so every layer of the
// compiled program — and every round of the underlying protocols — runs
// once per batch instead of once per query. The kernel package's grouped
// GEMM then amortizes the heavy linear algebra across the batch dimension,
// and the per-op fixed costs (Beaver openings, truncation passes, message
// framing) are paid once per flush.

// PackQueries stacks K plaintext queries along the batch dimension. Each
// query must be C×H×W or N×C×H×W with identical trailing geometry; the
// returned tensor is (ΣN)×C×H×W and the count slice records each query's
// row span for demultiplexing.
func PackQueries(queries []*tensor.Tensor) (*tensor.Tensor, []int, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("pi: no queries to pack")
	}
	counts := make([]int, len(queries))
	var geom []int
	total := 0
	for i, q := range queries {
		n, g, err := splitLeading(q.Shape)
		if err != nil {
			return nil, nil, fmt.Errorf("pi: query %d: %w", i, err)
		}
		if geom == nil {
			geom = g
		} else if !shapeEqual(geom, g) {
			return nil, nil, fmt.Errorf("pi: query %d geometry %v does not match %v", i, g, geom)
		}
		counts[i] = n
		total += n
	}
	packed := tensor.New(append([]int{total}, geom...)...)
	off := 0
	for _, q := range queries {
		off += copy(packed.Data[off:], q.Data)
	}
	return packed, counts, nil
}

// PackShares is PackQueries over secret shares: both parties pack their
// halves identically (a local re-layout), so the packed share is a valid
// sharing of the packed plaintext batch.
func PackShares(xs []mpc.Share) (mpc.Share, []int, error) {
	if len(xs) == 0 {
		return mpc.Share{}, nil, fmt.Errorf("pi: no query shares to pack")
	}
	counts := make([]int, len(xs))
	var geom []int
	total := 0
	for i, x := range xs {
		n, g, err := splitLeading(x.Shape)
		if err != nil {
			return mpc.Share{}, nil, fmt.Errorf("pi: query share %d: %w", i, err)
		}
		if geom == nil {
			geom = g
		} else if !shapeEqual(geom, g) {
			return mpc.Share{}, nil, fmt.Errorf("pi: query share %d geometry %v does not match %v", i, g, geom)
		}
		counts[i] = n
		total += n
	}
	packed := mpc.NewShare(append([]int{total}, geom...)...)
	off := 0
	for _, x := range xs {
		off += copy(packed.V[off:], x.V)
	}
	return packed, counts, nil
}

// SplitShares splits a batched output share back into per-query shares
// along the leading dimension. counts[i] rows go to query i, preserving
// each query's original batch size.
func SplitShares(out mpc.Share, counts []int) ([]mpc.Share, error) {
	if len(out.Shape) < 1 {
		return nil, fmt.Errorf("pi: cannot split scalar share")
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if out.Shape[0] != total {
		return nil, fmt.Errorf("pi: batched output has %d rows, queries expect %d", out.Shape[0], total)
	}
	rowLen := out.Len() / out.Shape[0]
	parts := make([]mpc.Share, len(counts))
	off := 0
	for i, n := range counts {
		shape := append([]int{n}, out.Shape[1:]...)
		s := mpc.NewShare(shape...)
		off += copy(s.V, out.V[off:off+n*rowLen])
		parts[i] = s
	}
	return parts, nil
}

// SplitLogits demultiplexes a flat batched logit vector into per-query
// slices. counts[i] rows of width len(out)/ΣN go to query i.
func SplitLogits(out []float64, counts []int) ([][]float64, error) {
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 || len(out)%total != 0 {
		return nil, fmt.Errorf("pi: %d logits do not demux over %d query rows", len(out), total)
	}
	d := len(out) / total
	parts := make([][]float64, len(counts))
	off := 0
	for i, n := range counts {
		parts[i] = out[off : off+n*d : off+n*d]
		off += n * d
	}
	return parts, nil
}

// InferBatch packs K independent query shares into one N=K batch, runs the
// compiled program once, and returns the per-query output shares. Both
// parties must call it with query lists of identical geometry; the packing
// and demultiplexing are local, so protocol traffic is exactly that of a
// single batched inference.
func (e *Engine) InferBatch(xs []mpc.Share) ([]mpc.Share, error) {
	packed, counts, err := PackShares(xs)
	if err != nil {
		return nil, err
	}
	out, err := e.Infer(packed)
	if err != nil {
		return nil, err
	}
	return SplitShares(out, counts)
}

// splitLeading normalizes a query shape into (batch rows, geometry):
// N×C×H×W keeps its leading dim, C×H×W is one row.
func splitLeading(shape []int) (int, []int, error) {
	switch len(shape) {
	case 4:
		if shape[0] < 1 {
			return 0, nil, fmt.Errorf("batch dim %d < 1 in shape %v", shape[0], shape)
		}
		return shape[0], shape[1:], nil
	case 3:
		return 1, shape, nil
	default:
		return 0, nil, fmt.Errorf("query shape %v is not C×H×W or N×C×H×W", shape)
	}
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckShape validates an actual query shape against an expectation. An
// empty expectation accepts anything; a zero in any position is a wildcard
// for that dimension (expected[0]=0 is the usual "any batch size" form).
func CheckShape(actual, expected []int) error {
	if len(expected) == 0 {
		return nil
	}
	if len(actual) != len(expected) {
		return fmt.Errorf("pi: query shape %v does not match expected input shape %v", actual, expected)
	}
	for i := range actual {
		if expected[i] != 0 && actual[i] != expected[i] {
			return fmt.Errorf("pi: query shape %v does not match expected input shape %v", actual, expected)
		}
	}
	return nil
}

// negotiateShape is the pre-flush control round: party 1 announces the
// batch geometry it is about to share, party 0 announces the geometry it
// expects, and each side validates the other's view before any protocol
// data flows. A mismatch therefore surfaces as an immediate, symmetric
// error instead of a mid-protocol length desync. Party 1 returns the
// agreed shape; party 0 additionally learns the flush's batch size this
// way. An empty shape from party 1 is the end-of-session sentinel, and is
// returned as (nil, nil).
func negotiateShape(p *mpc.Party, mine []int) ([]int, error) {
	if p.ID == 0 {
		// Party 0 answers eagerly, before the peer's frame arrives, so its
		// answer to an end-of-session sentinel races the peer hanging up
		// (over TCP: a reset under the frame's second write). Nobody reads
		// that answer; only failing to answer a real flush is an error.
		sent := make(chan error, 1)
		go func() { sent <- p.Conn.SendShape(mine) }()
		theirs, err := p.Conn.RecvShape()
		sendErr := <-sent
		if err == nil && len(theirs) == 0 {
			return nil, nil
		}
		if sendErr != nil {
			return nil, fmt.Errorf("pi: shape negotiation: send: %w", sendErr)
		}
		if err != nil {
			return nil, fmt.Errorf("pi: shape negotiation: recv: %w", err)
		}
		if err := CheckShape(theirs, mine); err != nil {
			return nil, err
		}
		return theirs, nil
	}
	theirs, err := transport.ExchangeShapes(p.Conn, mine)
	if err != nil {
		return nil, fmt.Errorf("pi: shape negotiation: %w", err)
	}
	if err := CheckShape(mine, theirs); err != nil {
		return nil, err
	}
	return mine, nil
}

// Session is one party's endpoint of a persistent private-inference
// deployment: the model is compiled and secret-shared once, then any
// number of batched evaluations run over the same transport. It is the
// unit a sched.Dispatcher lane drives.
type Session struct {
	party *mpc.Party
	eng   *Engine
	// expect is party 0's declared query geometry (index 0 zero = any
	// batch size). Party 1 leaves it nil.
	expect []int
	// provider, when set, supplies a preprocessed correlation source per
	// flush geometry; nil keeps the live dealer.
	provider SourceProvider
	// fallbacks counts flushes degraded to the live dealer because a
	// provider could not resolve the flush geometry (see negotiateSource).
	// Atomic: monitoring callers (gateway Router.Status) may read it while
	// a flush runs on the session goroutine.
	fallbacks atomic.Int64
	// budget is the remaining preprocessed-correlation count this party's
	// store reported in the most recent source-stamp round (before that
	// flush consumed its demand), or -1 while the session has only ever
	// run on the live dealer. Atomic for the same monitoring readers as
	// fallbacks; it is the per-shard budget telemetry the gateway surfaces
	// through Router.Status.
	budget atomic.Int64
	// flushDeadline, when positive, bounds each flush's transport receives
	// (see SetFlushDeadline). Set before traffic flows.
	flushDeadline time.Duration
	// spans, when set by Instrument, receives per-phase flush timings
	// (see flight.go). Nil keeps the flush path free of clock reads.
	spans *obs.FlushSpans
}

// Instrument wires the session into an observability registry: the five
// Flight phases (ingest/evaluate/reveal_send/reveal_recv/decode) report
// per-phase latency histograms under the given label pairs, and the
// engine reports every flush's per-op timings to the registry's OpFeed.
// Call before traffic flows; the phase and op timers only run once
// installed, so an un-instrumented session reads no clock.
func (s *Session) Instrument(reg *obs.Registry, labels ...string) {
	s.spans = reg.FlushSpans(labels...)
	s.eng.SetOpFeed(reg.OpFeed())
}

// SetFlushDeadline bounds every flush's transport receives to d: party 1
// arms the connection's read deadline when it announces a flush, party 0
// when a flush's shape frame arrives — never while party 0 idles between
// flushes, which is legitimate quiet, not a stall. A peer that goes
// silent mid-flush then fails the flush with an error satisfying
// errors.Is(err, os.ErrDeadlineExceeded) instead of wedging the session's
// goroutine forever; the 2PC pair is poisoned either way (any flush error
// is terminal for the pair), so the deadline converts a hung worker into
// an ordinary shard death the lifecycle can revive. Zero disables. Call
// before traffic flows.
func (s *Session) SetFlushDeadline(d time.Duration) { s.flushDeadline = d }

// armDeadline starts (or extends) the current flush's receive and send
// deadlines. The write deadline matters when the peer accepts the
// connection but stops reading: backpressure eventually blocks this
// party's sends (a full socket or pipe buffer), somewhere the read
// deadline alone cannot reach — Exchange would report the receive timeout
// yet stay wedged waiting for its send goroutine.
func (s *Session) armDeadline() {
	if s.flushDeadline > 0 {
		dl := time.Now().Add(s.flushDeadline)
		_ = s.party.Conn.SetReadDeadline(dl)
		_ = s.party.Conn.SetWriteDeadline(dl)
	}
}

// clearDeadline lifts the deadlines for the idle wait between flushes.
func (s *Session) clearDeadline() {
	if s.flushDeadline > 0 {
		_ = s.party.Conn.SetReadDeadline(time.Time{})
		_ = s.party.Conn.SetWriteDeadline(time.Time{})
	}
}

// Fallbacks reports how many flushes ran on the live dealer because the
// preprocessed source could not be resolved for their geometry.
func (s *Session) Fallbacks() int { return int(s.fallbacks.Load()) }

// RemainingBudget reports the preprocessed-correlation count this party's
// store declared in the latest source-stamp round — the stamped value,
// i.e. the budget *before* that flush consumed its demand — or -1 while
// the session has only ever served from the live dealer. Operators use it
// to re-provision a deployment before exhaustion instead of after the
// failover.
func (s *Session) RemainingBudget() int { return int(s.budget.Load()) }

// UsePreprocessed installs a correlation source provider: before each
// flush, the negotiated batch geometry is looked up and the returned
// source (typically a corr.Store loaded from a preprocess run) replaces
// the live dealer for that evaluation. Both parties of a deployment must
// be provisioned from the same preprocess run, or both left on the live
// dealer — a per-flush control round cross-checks this (see
// negotiateSource), so inconsistent provisioning fails loudly instead of
// silently corrupting every result.
func (s *Session) UsePreprocessed(p SourceProvider) { s.provider = p }

// negotiateSource is the per-flush correlation-source control round: each
// party resolves its source for the negotiated geometry and the two
// exchange a stamp — live dealer, store with its preprocess-run label and
// remaining budget, or provider-failure. Mixed provisioning (store on one
// side, dealer on the other; stores from different preprocess runs; torn
// budgets) yields inconsistent correlation halves and silently wrong
// logits if allowed to run, so a stamp mismatch fails both parties
// symmetrically before any protocol data flows. A provider that cannot
// resolve the flush geometry (e.g. a batcher row-sum nobody preprocessed)
// is gentler: both parties agree via the stamp to degrade that one flush
// to the live dealer instead of killing the deployment — sound, because
// the parties' dealer streams advance only on flushes both run live, so
// they stay lockstep across any store/dealer interleaving.
func (s *Session) negotiateSource(shape []int) error {
	ss, err := s.announceSource(shape)
	if err != nil {
		return err
	}
	return s.confirmSource(ss, shape)
}

// sourceStamp carries the announce half's resolved source and the stamp
// it transmitted into the confirm half.
type sourceStamp struct {
	src   mpc.CorrelationSource
	stamp []int
}

// announceSource is the send half of the source round: resolve this
// party's source for the flush geometry and transmit the stamp. The
// stamp is sent even when the local provider failed (tag 2/3): the peer
// needs it to land in its own receive, or it would hang — the exact
// asymmetry this round exists to prevent. Tags: 0 live dealer, 1 store,
// 2 degradable miss (ErrNoStore), 3 hard provider failure (corrupt
// store, unreadable dir, ...). Hard failures stay fatal on both sides:
// serving silently without the offline split would mask a real defect
// (a corrupt store file is not a capacity-planning gap).
func (s *Session) announceSource(shape []int) (*sourceStamp, error) {
	var src mpc.CorrelationSource
	var srcErr error
	if s.provider != nil {
		src, srcErr = s.provider.SourceFor(s.party.ID, shape)
	}
	mine := []int{0, 0, 0}
	switch {
	case srcErr != nil && errors.Is(srcErr, ErrNoStore):
		mine[0] = 2
	case srcErr != nil:
		mine[0] = 3
	case src != nil:
		mine[0] = 1
		if st, ok := src.(*corr.Store); ok {
			mine[1] = int(st.Label())
			mine[2] = st.Remaining()
			// The stamp already carries the remaining budget; keep the
			// latest value readable for monitoring (RemainingBudget).
			s.budget.Store(int64(mine[2]))
		}
	}
	if err := s.party.Conn.SendShape(mine); err != nil {
		return nil, fmt.Errorf("pi: correlation source negotiation: %w", err)
	}
	if mine[0] == 3 {
		return nil, fmt.Errorf("pi: correlation source for geometry %v: %w", shape, srcErr)
	}
	return &sourceStamp{src: src, stamp: mine}, nil
}

// confirmSource is the receive half of the source round: take the peer's
// stamp, cross-validate, and install the flush's source.
func (s *Session) confirmSource(ss *sourceStamp, shape []int) error {
	theirs, err := s.party.Conn.RecvShape()
	if err != nil {
		return fmt.Errorf("pi: correlation source negotiation: %w", err)
	}
	mine := ss.stamp
	if len(theirs) == 3 && theirs[0] == 3 {
		return fmt.Errorf("pi: peer failed to resolve its correlation source for geometry %v", shape)
	}
	// A missing store on either side degrades this flush to the live
	// dealer on both, symmetrically (a party that was already on the live
	// dealer just stays there). The budget reading goes back to unknown:
	// announceSource may have just stamped this party's store for a
	// geometry the flush then abandoned, and letting that stale value
	// stand would have RemainingBudget consumers (-budget-warn, the
	// reprovision watcher's floor check) trust a store the session is no
	// longer drawing from.
	if mine[0] == 2 || (len(theirs) == 3 && theirs[0] == 2) {
		s.party.Source = s.party.Dealer
		s.budget.Store(-1)
		s.fallbacks.Add(1)
		return nil
	}
	if len(theirs) != len(mine) || theirs[0] != mine[0] || theirs[1] != mine[1] || theirs[2] != mine[2] {
		return fmt.Errorf("pi: correlation sources diverge: this party uses %s, peer uses %s — both parties must serve either from the live dealer or from stores of one preprocess run, in lockstep",
			stampString(mine), stampString(theirs))
	}
	if ss.src != nil {
		s.party.Source = ss.src
	} else {
		s.party.Source = s.party.Dealer
	}
	return nil
}

// stampString renders a source stamp for the divergence error.
func stampString(v []int) string {
	if len(v) != 3 {
		return fmt.Sprintf("malformed stamp %v", v)
	}
	if v[0] == 0 {
		return "the live dealer"
	}
	return fmt.Sprintf("a preprocessed store (run %08x, %d correlations left)", v[1], v[2])
}

// SessionOptions configures optional session behavior.
type SessionOptions struct {
	// FixedMasks selects the fixed weight-mask protocol: setup opens
	// F = W−b once per layer, flushes open only the activation side, and
	// any preprocessed stores must be written in the same mode
	// (WriteStoresMode / the gateway's SetFixedMasks). Both parties must
	// agree; a one-sided toggle fails loudly in setup's opening exchange.
	FixedMasks bool
}

// NewSession compiles the model and performs the one-time weight-sharing
// setup. Both parties must construct their session before either side
// issues a query. expect is the input geometry party 0 will enforce per
// flush; pass 0 for the batch dimension to accept any batch size. Party 1
// may pass nil.
func NewSession(p *mpc.Party, m *models.Model, expect []int) (*Session, error) {
	return NewSessionOpts(p, m, expect, SessionOptions{})
}

// NewSessionOpts is NewSession with explicit options.
func NewSessionOpts(p *mpc.Party, m *models.Model, expect []int, opts SessionOptions) (*Session, error) {
	if m.Net == nil {
		return nil, fmt.Errorf("pi: model %q has no trained network", m.Name)
	}
	prog, err := Compile(m.Net)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(prog)
	eng.SetFixedMasks(opts.FixedMasks)
	if err := eng.Setup(p); err != nil {
		return nil, err
	}
	s := &Session{party: p, eng: eng, expect: expect}
	s.budget.Store(-1)
	return s, nil
}

// Query runs one batched evaluation from party 1's side: negotiate the
// batch shape, secret-share the packed queries, run the program, and
// reconstruct the flat batched logits (row i holds query row i's logits).
// It is exactly the serialized composition of the Flight phases (see
// flight.go), which is what makes pipelined and serialized schedules
// bit-identical.
func (s *Session) Query(x *tensor.Tensor) ([]float64, error) {
	f, err := s.BeginQuery(x)
	if err != nil {
		return nil, err
	}
	if err := f.Evaluate(); err != nil {
		return nil, err
	}
	if err := f.SendResult(); err != nil {
		return nil, err
	}
	if err := f.RecvPeerShare(); err != nil {
		return nil, err
	}
	return f.Result(), nil
}

// ServeOne runs one batched evaluation from party 0's side, returning
// done=true when the peer closed the session. The logits are returned so
// deployments where party 0 also consumes results can use them.
func (s *Session) ServeOne() (logits []float64, done bool, err error) {
	if s.party.ID != 0 {
		return nil, false, fmt.Errorf("pi: ServeOne is party 0's side; party 1 queries")
	}
	shape, err := negotiateShape(s.party, s.expect)
	if err != nil {
		return nil, false, err
	}
	if shape == nil {
		return nil, true, nil
	}
	// The shape frame proves the peer started a flush; every receive from
	// here to the reveal is bounded. The idle RecvShape above is not — a
	// serving party legitimately waits arbitrarily long for traffic.
	s.armDeadline()
	defer s.clearDeadline()
	if err := s.negotiateSource(shape); err != nil {
		return nil, false, err
	}
	xs, err := s.party.ShareInput(1, nil, shape...)
	if err != nil {
		return nil, false, err
	}
	out, err := s.eng.Infer(xs)
	if err != nil {
		return nil, false, err
	}
	vals, err := s.party.Reveal(out)
	if err != nil {
		return nil, false, err
	}
	return s.party.DecodeTensor(vals), false, nil
}

// Serve loops batched evaluations until the peer closes the session.
func (s *Session) Serve() error {
	for {
		_, done, err := s.ServeOne()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Close ends the session from party 1's side by sending the empty-shape
// sentinel that releases party 0's serve loop.
func (s *Session) Close() error {
	if s.party.ID != 1 {
		return nil
	}
	return s.party.Conn.SendShape(nil)
}
