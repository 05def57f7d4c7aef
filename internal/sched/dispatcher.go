package sched

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pasnet/internal/obs"
	"pasnet/internal/pi"
	"pasnet/internal/tensor"
)

// Policy selects how the dispatcher picks a shard for each query.
type Policy int

const (
	// RoundRobin rotates over healthy shards regardless of their load —
	// the pre-scheduler gateway behavior, kept as the baseline.
	RoundRobin Policy = iota
	// QueueAware picks the healthy shard with the lowest estimated
	// completion time for its backlog plus the candidate query: pending
	// flushes cost the group's fixed-per-flush latency estimate, pending
	// rows its per-row estimate, and the lane's speed ratio scales the
	// whole thing. Ties rotate round-robin so an idle fleet still
	// spreads load.
	QueueAware Policy = iota
)

// ErrDispatcherClosed rejects submissions that arrive after Close began.
// Queries already queued are drained through final flushes first.
var ErrDispatcherClosed = errors.New("sched: dispatcher is closed to new queries (deployment shutting down)")

// ErrShed marks a query rejected at admission — over a model's in-flight
// quota, or headed for a lane whose estimated completion already exceeds
// the queue-time target. Shed queries never touch a lane queue: the
// submitter gets the error immediately (a serving frontend forwards it as
// a kind-'e' error frame) and can retry or back off, instead of queueing
// into a latency it would never accept.
var ErrShed = errors.New("sched: query shed by admission control (deployment overloaded)")

// Options configures a Dispatcher.
type Options struct {
	// Batch is the max queries packed into one flush (minimum 1).
	Batch int
	// QueueCap bounds each shard's pending queue in queries; a submission
	// to a full queue blocks (backpressure), it is never dropped.
	// Default 256.
	QueueCap int
	// Window is how long a flush that already has work waits for more
	// queries to fill the batch. Zero is work-conserving: the moment the
	// session is free, whatever is queued flushes — under load batches
	// fill on their own because the queue grows while the previous flush
	// runs.
	Window time.Duration
	// Policy picks shards (default RoundRobin).
	Policy Policy
	// QueueTarget, when positive, enables queue-time admission control: a
	// query whose picked lane's estimated completion time (the pooled
	// latency model times the lane's speed ratio, over its backlog plus
	// the candidate) exceeds the target is shed with ErrShed instead of
	// queued. Until the model's first flush completes the estimate has no
	// time units, so a cold fleet admits everything — admission control
	// bounds the tail of a running deployment, it does not gate warmup.
	QueueTarget time.Duration
	// ModelQuotas caps each model's in-flight admitted queries (admission
	// through reply); submissions over the cap are shed with ErrShed.
	// Missing or non-positive entries leave the model unlimited.
	ModelQuotas map[string]int
	// Obs, when set, exports every lane's scheduling counters, queue-depth
	// gauges and pooled-EWMA gauges through the registry and records
	// lifecycle events (shed, failover, deadline, revival, quarantine,
	// reprovision-swap) on its event ring. Nil keeps the same bookkeeping
	// on unregistered metric objects — Status works either way.
	Obs *obs.Registry
}

// item is one routed query: the tensor, its row weight for scoring, and
// the reply slot its submitter waits on. An item with swap set is not a
// query at all but a generation-handoff marker riding the lane queue (see
// SwapSession); it carries no tensor and holds no counters.
type item struct {
	model    string
	x        *tensor.Tensor
	rows     int64
	attempts int
	reply    chan itemResult
	// g, when non-nil, holds the model group whose quota this item
	// occupies until delivery.
	g    *group
	swap *swapReq
}

// swapReq asks a lane to install a re-provisioned session between flushes.
type swapReq struct {
	sess FlushSession
	gen  int
}

type itemResult struct {
	logits []float64
	err    error
}

// release returns the item's quota hold, if it took one. Idempotent.
func (it *item) release() {
	if it.g != nil {
		it.g.held.Add(-1)
		it.g = nil
	}
}

// deliver resolves the item's reply and releases its quota hold. Every
// reply path must go through it — a hold leaked on any error path would
// shrink the model's quota for the deployment's lifetime.
func (it *item) deliver(r itemResult) {
	it.release()
	it.reply <- r
}

// worker is one (model, shard) serving lane: a bounded queue drained by a
// single goroutine that gathers batches and drives the shard's
// FlushSession. All scheduling state the picker reads is atomic or under
// the lane mutex.
type worker struct {
	d     *Dispatcher
	g     *group
	model string
	shard int
	queue chan *item

	// The scheduling counters live on obs metric objects (atomic inside,
	// identical update API) so one registry serves both the picker's
	// reads and the /metrics export. With Options.Obs nil they are
	// unregistered but fully functional.
	queuedQueries *obs.Gauge   // queries waiting in queue
	queuedRows    *obs.Gauge   // their row sum
	inflightRows  *obs.Gauge   // rows inside flushes not yet completed
	inflightFlush *obs.Gauge   // flushes begun and not yet completed
	queries       *obs.Counter // queries routed here (failover retries count)
	flushes       *obs.Counter
	admitted      *obs.Counter // queries admission control let through to this lane
	shed          *obs.Counter // queries admission control rejected off this lane
	deadlined     *obs.Counter // pair deaths caused by an expired flush deadline
	speedG        *obs.FGauge  // export mirror of the lane's speed ratio

	mu          sync.Mutex
	speed       float64 // EWMA of actual/predicted flush duration (1: nominal)
	speedN      int64   // speed observations (the first sets speed directly)
	sess        FlushSession
	down        error
	quarantined bool
	gen         int // generation currently serving (0: the original dial)
	genTried    int // highest generation any revival attempt has claimed
	strikes     int
	revivedAt   time.Time
	revived     int
	swaps       int // graceful generation handoffs installed (SwapSession)

	// pendingSwap stashes a swap marker gather() pulled mid-batch until
	// the flush it interrupted has begun. Worker-goroutine only.
	pendingSwap *swapReq

	comp sync.WaitGroup // outstanding flush-completion goroutines
	done chan struct{}  // worker loop exited (dispatcher Close)
}

// latModel is a model group's online flush-latency model. A flush costs
// roughly F + C·rows — a fixed part (the protocol's round trips and
// per-flush overheads) plus a per-row part (the compute and traffic that
// scale with the batch) — and which part dominates depends on the
// deployment (wire latency vs core count), so the picker must estimate
// both: scoring on a per-row average alone makes a lane that just served
// a heavy flush look cheap per row exactly when round latency dominates,
// concentrating load on it backwards. The model keeps EWMAs of the first
// and second moments of (duration, rows) and recovers F and C by least
// squares, clamped non-negative.
//
// The model is pooled per GROUP, not per lane: a model's lanes run the
// same program, so their cost structure is shared — and one lane's one
// or two flushes cannot identify two parameters (whichever term its
// sample mix happens to hit absorbs everything, and lanes then compare
// in incommensurate units, which in practice concentrated whole bursts
// onto whichever lane's noise-fit looked cheapest). What genuinely
// differs per lane — a remote pair, a degraded host — is captured by the
// lane's scalar speed ratio.
type latModel struct {
	n                       int64
	dur, rows, durRows, rw2 float64
}

// latAlpha is the moment-EWMA weight: reactive enough to steer around a
// lane that turned slow, stable enough not to thrash on one noisy flush.
const latAlpha = 0.25

func (lm *latModel) observe(durNS, rows float64) {
	if lm.n == 0 {
		lm.dur, lm.rows, lm.durRows, lm.rw2 = durNS, rows, durNS*rows, rows*rows
		lm.n = 1
		return
	}
	lm.dur += latAlpha * (durNS - lm.dur)
	lm.rows += latAlpha * (rows - lm.rows)
	lm.durRows += latAlpha * (durNS*rows - lm.durRows)
	lm.rw2 += latAlpha * (rows*rows - lm.rw2)
	lm.n++
}

// params returns the fixed-per-flush and per-row cost estimates in
// nanoseconds (ok=false before the first observation). With no row-count
// variance yet, the whole cost is attributed to the fixed term — scoring
// then ranks lanes by pending flush count, which is the right degenerate
// behavior.
func (lm *latModel) params() (f, c float64, ok bool) {
	if lm.n == 0 {
		return 0, 0, false
	}
	if varR := lm.rw2 - lm.rows*lm.rows; varR > 1e-9 {
		c = (lm.durRows - lm.dur*lm.rows) / varR
		if c < 0 {
			c = 0
		}
	}
	f = lm.dur - c*lm.rows
	if f < 0 {
		f = 0
	}
	return f, c, true
}

// ShardStatus is one shard lane's scheduling snapshot. The JSON tags are
// the scrape format pasnet-server's -status-json dump uses.
type ShardStatus struct {
	Model   string `json:"model"`
	Shard   int    `json:"shard"`
	Queries int64  `json:"queries"`
	Flushes int64  `json:"flushes"`
	// QueuedRows and InFlightRows are the backlog the queue-aware picker
	// scores: rows waiting in the lane's queue and rows inside flushes
	// that have not completed.
	QueuedRows   int64 `json:"queued_rows"`
	InFlightRows int64 `json:"inflight_rows"`
	// EWMAFlushMS and EWMARowMS are the model group's pooled latency
	// model — a flush costs about EWMAFlushMS plus EWMARowMS per batch
	// row (both 0 until the group's first flush completes) — and Speed is
	// this lane's actual/predicted duration ratio (1: nominal; higher:
	// the lane runs slow and the picker avoids it proportionally).
	EWMAFlushMS float64 `json:"ewma_flush_ms"`
	EWMARowMS   float64 `json:"ewma_row_ms"`
	Speed       float64 `json:"speed"`
	// Admitted and Shed are the lane's admission-control counters:
	// queries the picker sent here that were let through, and queries it
	// would have sent here that were rejected (over the model quota or
	// the queue-time target) with ErrShed.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	// Deadlined counts pair deaths caused by an expired flush deadline —
	// a stalled or half-dead peer detected by the read-deadline bound
	// instead of wedging the lane's worker.
	Deadlined int64 `json:"deadlined"`
	// Budget is the shard's remaining preprocessed-correlation count from
	// the latest source-stamp round (-1: live dealer / unknown).
	Budget int `json:"budget"`
	// Fallbacks counts flushes degraded to the live dealer.
	Fallbacks int `json:"fallbacks"`
	// Gen is the pair's lifecycle generation (0: the original dial; n>0:
	// revived or gracefully handed off n times with fresh streams and
	// stores).
	Gen int `json:"gen"`
	// Revived counts successful revivals.
	Revived int `json:"revived"`
	// Reprovisioned counts graceful generation handoffs: background
	// re-provisioning swapped in a fresh store generation without the
	// lane ever going down.
	Reprovisioned int `json:"reprovisioned"`
	// Quarantined marks a pair the lifecycle gave up on (kept dying).
	Quarantined bool `json:"quarantined"`
	// Down is empty while the shard serves; otherwise the error that
	// killed the pair (awaiting revival, or final if quarantined).
	Down string `json:"down,omitempty"`
}

// Dispatcher routes queries across shard lanes. It owns one bounded work
// queue per (model, shard), picks lanes by Options.Policy, transparently
// fails queries over when a pair dies, and drains gracefully on Close. It
// is the scheduling layer gateway.Router delegates to.
type Dispatcher struct {
	opts Options

	mu     sync.RWMutex
	groups map[string]*group
	order  []string
	closed bool
	// sends tracks in-flight queue sends so Close can wait them out
	// before closing the queues.
	sends sync.WaitGroup

	cmu      sync.Mutex
	closeErr error

	lc *Lifecycle
}

// group is one model's lane set plus its pooled latency model.
type group struct {
	workers []*worker
	rr      atomic.Uint64
	// held counts the model's in-flight admitted queries against
	// Options.ModelQuotas (admission through reply delivery).
	held atomic.Int64

	lmu sync.Mutex
	lat latModel
	// ewmaFlushG/ewmaRowG export the pooled latency model's F and C
	// estimates in milliseconds, updated on every completed flush.
	ewmaFlushG *obs.FGauge
	ewmaRowG   *obs.FGauge
}

// NewDispatcher builds an empty dispatcher; add lanes with AddShard
// before submitting.
func NewDispatcher(opts Options) *Dispatcher {
	if opts.Batch < 1 {
		opts.Batch = 1
	}
	if opts.QueueCap < 1 {
		opts.QueueCap = 256
	}
	return &Dispatcher{opts: opts, groups: map[string]*group{}}
}

// AddShard registers one (model, shard) lane around an established
// session and starts its worker. Shard indices within a model must be
// unique; models appear in Status in first-registration order.
func (d *Dispatcher) AddShard(model string, shard int, sess FlushSession) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDispatcherClosed
	}
	g, ok := d.groups[model]
	if !ok {
		g = &group{
			ewmaFlushG: d.opts.Obs.FGauge("pasnet_sched_ewma_flush_ms", "model", model),
			ewmaRowG:   d.opts.Obs.FGauge("pasnet_sched_ewma_row_ms", "model", model),
		}
		d.groups[model] = g
		d.order = append(d.order, model)
	}
	for _, w := range g.workers {
		if w.shard == shard {
			return fmt.Errorf("sched: model %q shard %d already has a dispatch lane", model, shard)
		}
	}
	reg := d.opts.Obs
	lbl := []string{"model", model, "shard", strconv.Itoa(shard)}
	w := &worker{
		d:     d,
		g:     g,
		model: model,
		shard: shard,
		queue: make(chan *item, d.opts.QueueCap),
		sess:  sess,
		speed: 1,
		done:  make(chan struct{}),

		queuedQueries: reg.Gauge("pasnet_sched_queued_queries", lbl...),
		queuedRows:    reg.Gauge("pasnet_sched_queued_rows", lbl...),
		inflightRows:  reg.Gauge("pasnet_sched_inflight_rows", lbl...),
		inflightFlush: reg.Gauge("pasnet_sched_inflight_flushes", lbl...),
		queries:       reg.Counter("pasnet_sched_queries_total", lbl...),
		flushes:       reg.Counter("pasnet_sched_flushes_total", lbl...),
		admitted:      reg.Counter("pasnet_sched_admitted_total", lbl...),
		shed:          reg.Counter("pasnet_sched_shed_total", lbl...),
		deadlined:     reg.Counter("pasnet_sched_deadline_deaths_total", lbl...),
		speedG:        reg.FGauge("pasnet_sched_speed", lbl...),
	}
	w.speedG.Set(1)
	g.workers = append(g.workers, w)
	go w.run()
	return nil
}

// EnableLifecycle attaches a revival lifecycle: dead lanes are re-dialed
// and re-provisioned through revive with exponential backoff instead of
// staying retired, and pairs that keep dying are quarantined. Call before
// traffic flows.
func (d *Dispatcher) EnableLifecycle(revive ReviveFunc, opts LifecycleOptions) *Lifecycle {
	d.lc = newLifecycle(d, revive, opts)
	return d.lc
}

// pick chooses the serving lane for a query of the given row weight. est
// is the chosen lane's estimated completion for its backlog plus the
// candidate, in nanoseconds when calibrated is true — i.e. once the
// group's latency model has its first completed flush. Uncalibrated
// estimates are unit-free priors usable only for relative ranking, never
// against a wall-clock target.
func (d *Dispatcher) pick(model string, rows int64) (w *worker, est float64, calibrated bool, err error) {
	d.mu.RLock()
	g, ok := d.groups[model]
	d.mu.RUnlock()
	if !ok {
		return nil, 0, false, fmt.Errorf("sched: no model %q has dispatch lanes", model)
	}
	n := len(g.workers)
	start := int(g.rr.Add(1) - 1)
	// Cost units come from the group's pooled model. Before its first
	// completed flush (e.g. a whole burst arriving faster than any
	// feedback), the prior weighs a flush like a full batch of rows —
	// a neutral F:C ratio that balances flush counts and row sums
	// together, where a (1, 1) prior would equate one row with one whole
	// flush and balance rows alone even when fixed round cost dominates.
	// Either way every lane compares in the same units.
	batch := float64(d.opts.Batch)
	f, c := batch, 1.0
	// The queue-time target needs a time-units estimate even under
	// RoundRobin, so the model is consulted whenever either feature
	// wants it.
	if d.opts.Policy == QueueAware || d.opts.QueueTarget > 0 {
		g.lmu.Lock()
		if gf, gc, ok := g.lat.params(); ok {
			f, c, calibrated = gf, gc, true
		}
		g.lmu.Unlock()
	}
	var best *worker
	var bestScore float64
	var lastErr error
	for i := 0; i < n; i++ {
		cand := g.workers[(start+i)%n]
		if err := cand.downErr(); err != nil {
			lastErr = err
			continue
		}
		// Estimated completion of this lane's backlog plus the candidate:
		// pending flushes (in flight, plus the queue folded at the batch
		// size) cost the fixed term each; pending rows cost the per-row
		// term; the lane's speed ratio scales the whole estimate. Ties
		// keep the rotating start's order, so an idle fleet degrades to
		// round-robin.
		cand.mu.Lock()
		speed := cand.speed
		cand.mu.Unlock()
		estFlushes := float64(cand.inflightFlush.Load()) + ceilDiv(float64(cand.queuedQueries.Load())+1, batch)
		estRows := float64(cand.queuedRows.Load()+cand.inflightRows.Load()) + float64(rows)
		score := speed * (estFlushes*f + estRows*c)
		if d.opts.Policy == RoundRobin {
			return cand, score, calibrated, nil
		}
		if best == nil || score < bestScore {
			best, bestScore = cand, score
		}
	}
	if best != nil {
		return best, bestScore, calibrated, nil
	}
	return nil, 0, false, fmt.Errorf("sched: all %d shard(s) of model %q are down: %w", n, model, lastErr)
}

// Submit routes one query and blocks for its logits.
func (d *Dispatcher) Submit(model string, x *tensor.Tensor) ([]float64, error) {
	return d.SubmitAsync(model, x)()
}

// SubmitAsync routes one query and returns a wait function, so connection
// readers can enqueue a pipelined stream without blocking. A submission
// to a full lane queue blocks inside SubmitAsync — backpressure, not loss.
// When the flush carrying the query fails, the lane is marked down and the
// query transparently retries on the model's remaining healthy lanes; only
// when every lane is down (or the retry budget is spent) does the wait
// return an error.
func (d *Dispatcher) SubmitAsync(model string, x *tensor.Tensor) func() ([]float64, error) {
	rows := int64(1)
	if len(x.Shape) == 4 {
		rows = int64(x.Shape[0])
	}
	it := &item{model: model, x: x, rows: rows, reply: make(chan itemResult, 1)}
	w, est, calibrated, err := d.pick(model, rows)
	if err != nil {
		return failedWait(err)
	}
	// Admission control, both checks at the submission edge: the quota
	// hold is taken optimistically (increment, then compare) so a burst
	// can never slip past the cap between check and hold, and released on
	// every reply path via item.deliver.
	if quota := d.opts.ModelQuotas[model]; quota > 0 {
		if held := w.g.held.Add(1); held > int64(quota) {
			w.g.held.Add(-1)
			w.shed.Add(1)
			d.opts.Obs.Event("shed", model, w.shard, "in-flight quota %d reached", quota)
			return failedWait(fmt.Errorf("sched: model %q already has %d in-flight queries at its quota of %d: %w", model, held-1, quota, ErrShed))
		}
		it.g = w.g
	}
	if target := d.opts.QueueTarget; target > 0 && calibrated && est > float64(target.Nanoseconds()) {
		it.release()
		w.shed.Add(1)
		d.opts.Obs.Event("shed", model, w.shard, "estimated completion %.1fms exceeds %.1fms queue-time target",
			est/1e6, float64(target.Nanoseconds())/1e6)
		return failedWait(fmt.Errorf("sched: model %q query shed: estimated completion %.1fms on shard %d exceeds the %.1fms queue-time target: %w",
			model, est/1e6, w.shard, float64(target.Nanoseconds())/1e6, ErrShed))
	}
	w.admitted.Add(1)
	if err := d.enqueue(w, it); err != nil {
		it.release()
		return failedWait(err)
	}
	return func() ([]float64, error) {
		r := <-it.reply
		return r.logits, r.err
	}
}

// enqueue hands a client submission to a lane, registering the send so
// Close can wait it out before closing queues. A full queue blocks the
// submitting client (backpressure) — safe for clients, who are never
// queue drainers.
func (d *Dispatcher) enqueue(w *worker, it *item) error {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return ErrDispatcherClosed
	}
	d.sends.Add(1)
	d.mu.RUnlock()
	defer d.sends.Done()
	w.queries.Add(1)
	w.queuedQueries.Add(1)
	w.queuedRows.Add(it.rows)
	w.queue <- it
	return nil
}

// tryEnqueue is enqueue's non-blocking variant for internal failover
// re-dispatches (see failover): ok=false means the lane's queue is full.
func (d *Dispatcher) tryEnqueue(w *worker, it *item) (ok bool, err error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return false, fmt.Errorf("sched: model %q query lost its shard during shutdown: %w", it.model, ErrDispatcherClosed)
	}
	d.sends.Add(1)
	d.mu.RUnlock()
	defer d.sends.Done()
	select {
	case w.queue <- it:
		w.queries.Add(1)
		w.queuedQueries.Add(1)
		w.queuedRows.Add(it.rows)
		return true, nil
	default:
		return false, nil
	}
}

// failover re-routes the items of a failed flush. Each item retries on
// the picker's next healthy lane until its retry budget (two passes over
// the model's lanes) is spent — revival can bring lanes back mid-retry,
// so an unbounded loop could bounce between chronically dying pairs
// forever. Failover enqueues never block: it runs on worker and
// completion goroutines, and a blocking send from the goroutine that
// should be draining one full queue into another full queue can close a
// mutual-wait cycle between two workers. A saturated fleet therefore
// rejects the re-dispatched query descriptively instead of gambling on a
// slot opening up.
func (d *Dispatcher) failover(items []*item, cause error) {
	for _, it := range items {
		it.attempts++
		d.mu.RLock()
		lanes := 0
		if g, ok := d.groups[it.model]; ok {
			lanes = len(g.workers)
		}
		d.mu.RUnlock()
		if it.attempts > 2*lanes {
			it.deliver(itemResult{err: fmt.Errorf("sched: model %q query failed on %d shard assignment(s), giving up: %w", it.model, it.attempts, cause)})
			continue
		}
		// Failover re-dispatches keep their original admission hold and
		// are never re-shed: the query was admitted once, and bouncing it
		// for load after a shard death would turn every pair loss into
		// client-visible churn.
		w, _, _, err := d.pick(it.model, it.rows)
		if err != nil {
			it.deliver(itemResult{err: err})
			continue
		}
		ok, err := d.tryEnqueue(w, it)
		switch {
		case err != nil:
			it.deliver(itemResult{err: err})
		case !ok:
			it.deliver(itemResult{err: fmt.Errorf("sched: model %q shard %d died and every healthy shard's queue is full; query rejected after %d assignment(s): %w", it.model, w.shard, it.attempts, cause)})
		}
	}
}

// Status snapshots every lane, grouped by model in registration order.
func (d *Dispatcher) Status() []ShardStatus {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []ShardStatus
	for _, model := range d.order {
		for _, w := range d.groups[model].workers {
			out = append(out, w.status())
		}
	}
	return out
}

// findWorker resolves one lane.
func (d *Dispatcher) findWorker(model string, shard int) *worker {
	d.mu.RLock()
	defer d.mu.RUnlock()
	g, ok := d.groups[model]
	if !ok {
		return nil
	}
	for _, w := range g.workers {
		if w.shard == shard {
			return w
		}
	}
	return nil
}

// NextGen reserves and returns the lane's next never-attempted lifecycle
// generation. Graceful re-provisioning and crash revival share one
// monotonic numbering per lane, so a background handoff and a concurrent
// revival can never both claim the same generation from the vendor.
func (d *Dispatcher) NextGen(model string, shard int) (int, error) {
	w := d.findWorker(model, shard)
	if w == nil {
		return 0, fmt.Errorf("sched: model %q shard %d has no dispatch lane", model, shard)
	}
	return w.nextGen(), nil
}

// SwapSession installs a re-provisioned session on a serving lane without
// dropping queries: the swap rides the lane queue like a query, so it
// lands between flushes — everything enqueued before it completes on the
// old session, everything after runs on the new one, and the old session
// is closed gracefully (its end-of-session sentinel releases the vendor's
// claim). It is the mechanism behind gateway background re-provisioning:
// store exhaustion becomes a generation handoff instead of a pair death.
// SwapSession returns once the swap is enqueued; a lane that dies before
// the marker drains belongs to the lifecycle, and the replacement is
// killed when the marker is handled.
func (d *Dispatcher) SwapSession(model string, shard, gen int, sess FlushSession) error {
	w := d.findWorker(model, shard)
	if w == nil {
		sess.Kill()
		return fmt.Errorf("sched: model %q shard %d has no dispatch lane", model, shard)
	}
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		sess.Kill()
		return ErrDispatcherClosed
	}
	d.sends.Add(1)
	d.mu.RUnlock()
	defer d.sends.Done()
	w.queue <- &item{swap: &swapReq{sess: sess, gen: gen}}
	return nil
}

// Close rejects new submissions, drains every lane's queued work through
// final flushes, closes each session gracefully (end-of-session sentinel
// on healthy pairs), and returns the first close error. Idempotent.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return d.firstCloseErr()
	}
	d.closed = true
	workers := []*worker{}
	for _, model := range d.order {
		workers = append(workers, d.groups[model].workers...)
	}
	d.mu.Unlock()
	// Stop revivals first so no lane flips back up mid-teardown.
	if d.lc != nil {
		d.lc.Stop()
	}
	// Wait out in-flight queue sends, then close every queue; the worker
	// loops drain what remains and shut their sessions down concurrently.
	d.sends.Wait()
	for _, w := range workers {
		close(w.queue)
	}
	for _, w := range workers {
		<-w.done
	}
	return d.firstCloseErr()
}

func (d *Dispatcher) firstCloseErr() error {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	return d.closeErr
}

func (d *Dispatcher) recordCloseErr(err error) {
	d.cmu.Lock()
	if d.closeErr == nil {
		d.closeErr = err
	}
	d.cmu.Unlock()
}

// failedWait adapts an immediate routing error to the wait-function shape.
func failedWait(err error) func() ([]float64, error) {
	return func() ([]float64, error) { return nil, err }
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b float64) float64 {
	n := a / b
	if f := float64(int64(n)); f < n {
		return f + 1
	}
	return n
}

// ---- worker ----

func (w *worker) downErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.down
}

func (w *worker) session() FlushSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sess
}

func (w *worker) status() ShardStatus {
	w.mu.Lock()
	st := ShardStatus{
		Model:         w.model,
		Shard:         w.shard,
		Gen:           w.gen,
		Revived:       w.revived,
		Reprovisioned: w.swaps,
		Quarantined:   w.quarantined,
	}
	if w.down != nil {
		st.Down = w.down.Error()
	}
	st.Speed = w.speed
	sess := w.sess
	w.mu.Unlock()
	w.g.lmu.Lock()
	if f, c, ok := w.g.lat.params(); ok {
		st.EWMAFlushMS = f / 1e6
		st.EWMARowMS = c / 1e6
	}
	w.g.lmu.Unlock()
	st.Queries = w.queries.Load()
	st.Flushes = w.flushes.Load()
	st.QueuedRows = w.queuedRows.Load()
	st.InFlightRows = w.inflightRows.Load()
	st.Admitted = w.admitted.Load()
	st.Shed = w.shed.Load()
	st.Deadlined = w.deadlined.Load()
	st.Budget = -1
	if sess != nil {
		st.Budget = sess.RemainingBudget()
		st.Fallbacks = sess.Fallbacks()
	}
	return st
}

// run is the lane's single worker loop: dequeue, gather a batch, flush.
// A down lane keeps draining its queue by re-dispatching to healthy
// lanes, so no item ever strands behind a dead pair.
func (w *worker) run() {
	defer close(w.done)
	for {
		it, ok := <-w.queue
		if !ok {
			break
		}
		// Swap markers hold no queue counters and are handled before any
		// decrement; they act between flushes by construction (the worker
		// goroutine is the only flush starter).
		if it.swap != nil {
			w.handleSwap(it.swap)
			continue
		}
		w.queuedQueries.Add(-1)
		w.queuedRows.Add(-it.rows)
		if err := w.downErr(); err != nil {
			w.d.failover([]*item{it}, err)
			continue
		}
		w.inflightRows.Add(it.rows)
		items := w.gather(it)
		w.flush(items)
		if ps := w.pendingSwap; ps != nil {
			w.pendingSwap = nil
			w.handleSwap(ps)
		}
	}
	w.comp.Wait()
	w.mu.Lock()
	sess, down := w.sess, w.down
	w.mu.Unlock()
	if sess != nil && down == nil {
		if err := sess.Close(); err != nil {
			w.d.recordCloseErr(fmt.Errorf("sched: close model %q shard %d: %w", w.model, w.shard, err))
		}
	}
}

// gather extends a started batch from the queue without exceeding
// Options.Batch queries, waiting at most Options.Window for stragglers.
func (w *worker) gather(first *item) []*item {
	items := []*item{first}
	var timer <-chan time.Time
	for len(items) < w.d.opts.Batch {
		var it *item
		var ok bool
		select {
		case it, ok = <-w.queue:
		default:
			if w.d.opts.Window <= 0 {
				return items
			}
			if timer == nil {
				timer = time.After(w.d.opts.Window)
			}
			select {
			case it, ok = <-w.queue:
			case <-timer:
				return items
			}
		}
		if !ok {
			return items
		}
		// A swap marker ends the batch: the handoff happens right after
		// the flush it trails, never splitting a gathered batch across
		// two sessions.
		if it.swap != nil {
			w.pendingSwap = it.swap
			return items
		}
		w.queuedQueries.Add(-1)
		w.queuedRows.Add(-it.rows)
		w.inflightRows.Add(it.rows)
		items = append(items, it)
	}
	return items
}

// flush packs one gathered batch, starts it on the session, and completes
// it on a goroutine (for a pipelined session the completion overlaps the
// next flush; for a serialized one it returns immediately).
func (w *worker) flush(items []*item) {
	queries := make([]*tensor.Tensor, len(items))
	var rows int64
	for i, it := range items {
		queries[i] = it.x
		rows += it.rows
	}
	packed, counts, err := pi.PackQueries(queries)
	if err != nil {
		// A packing error is a per-batch input defect (mixed geometries
		// can only reach one lane through a caller bypassing validation);
		// it does not poison the pair.
		w.inflightRows.Add(-rows)
		for _, it := range items {
			it.deliver(itemResult{err: err})
		}
		return
	}
	start := time.Now()
	w.inflightFlush.Add(1)
	sess := w.session()
	wait, err := sess.BeginFlush(packed)
	if err != nil {
		w.inflightFlush.Add(-1)
		w.inflightRows.Add(-rows)
		w.fail(err, sess)
		w.d.failover(items, err)
		return
	}
	w.flushes.Add(1)
	w.comp.Add(1)
	go func() {
		defer w.comp.Done()
		out, err := wait()
		w.inflightFlush.Add(-1)
		w.inflightRows.Add(-rows)
		if err != nil {
			w.fail(err, sess)
			w.d.failover(items, err)
			return
		}
		w.observe(time.Since(start), rows)
		per, err := pi.SplitLogits(out, counts)
		if err != nil {
			for _, it := range items {
				it.deliver(itemResult{err: err})
			}
			return
		}
		for i, it := range items {
			it.deliver(itemResult{logits: per[i]})
		}
	}()
}

// observe folds one completed flush into the group's pooled latency
// model and this lane's speed ratio.
func (w *worker) observe(dur time.Duration, rows int64) {
	if rows < 1 {
		return
	}
	durNS := float64(dur.Nanoseconds())
	w.g.lmu.Lock()
	w.g.lat.observe(durNS, float64(rows))
	f, c, _ := w.g.lat.params()
	w.g.lmu.Unlock()
	w.g.ewmaFlushG.Set(f / 1e6)
	w.g.ewmaRowG.Set(c / 1e6)
	if pred := f + c*float64(rows); pred > 0 {
		ratio := durNS / pred
		// A damped, clamped ratio: one hiccup cannot blacklist a lane,
		// a genuinely slow pair cannot hide, and pathological samples
		// cannot drive the score to zero or infinity.
		if ratio < 1.0/16 {
			ratio = 1.0 / 16
		}
		if ratio > 16 {
			ratio = 16
		}
		w.mu.Lock()
		if w.speedN == 0 {
			w.speed = ratio
		} else {
			w.speed += latAlpha * (ratio - w.speed)
		}
		w.speedN++
		speed := w.speed
		w.mu.Unlock()
		w.speedG.Set(speed)
	}
}

// fail marks the lane down on its first terminal error, kills the
// session, and hands the lane to the lifecycle — counting a
// poisoned-pair strike if it died on the heels of a revival, and
// resetting the strike record if the revival had proven itself by
// serving past the poison window (so three blips spread over weeks can
// never add up to the quarantine meant for chronically dying pairs).
// from names the session the error came from: a report from a session
// the lifecycle has already replaced is stale and must not kill — or
// strike — the freshly revived pair.
func (w *worker) fail(err error, from FlushSession) {
	w.mu.Lock()
	if w.down != nil || (from != nil && from != w.sess) {
		w.mu.Unlock()
		return
	}
	w.down = err
	if errors.Is(err, os.ErrDeadlineExceeded) {
		w.deadlined.Add(1)
		w.d.opts.Obs.Event("deadline", w.model, w.shard, "flush deadline expired: %v", err)
	} else {
		w.d.opts.Obs.Event("failover", w.model, w.shard, "pair died: %v", err)
	}
	sess := w.sess
	lc := w.d.lc
	if lc != nil && !w.revivedAt.IsZero() {
		if time.Since(w.revivedAt) < lc.opts.PoisonWindow {
			w.strikeLocked(err, lc.opts.MaxStrikes)
		} else {
			w.strikes = 0
		}
	}
	quarantined := w.quarantined
	w.mu.Unlock()
	if sess != nil {
		sess.Kill()
	}
	if lc != nil && !quarantined {
		lc.notify(w)
	}
}

// handleSwap installs a re-provisioned session between flushes (worker
// goroutine only; see SwapSession). The old session's graceful Close
// waits out its in-flight pipelined receive and sends the end-of-session
// sentinel, releasing the vendor's claim on the old generation; its
// close error is irrelevant — the old pair is retired either way.
func (w *worker) handleSwap(req *swapReq) {
	w.mu.Lock()
	if w.down != nil || w.quarantined {
		// The lane died before the marker drained: revival owns it now,
		// and installing the swap would race the lifecycle's resurrect.
		w.mu.Unlock()
		req.sess.Kill()
		return
	}
	old := w.sess
	w.sess = req.sess
	w.gen = req.gen
	w.swaps++
	w.mu.Unlock()
	w.d.opts.Obs.Event("reprovision-swap", w.model, w.shard, "generation %d installed between flushes", req.gen)
	if old != nil {
		_ = old.Close()
	}
}

// nextGen hands out the next never-attempted generation number
// (monotonic across failed attempts — see Lifecycle.revival).
func (w *worker) nextGen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.genTried++
	return w.genTried
}

// resurrect installs a revived session on the lane.
func (w *worker) resurrect(sess FlushSession, gen int) {
	w.mu.Lock()
	w.sess = sess
	w.down = nil
	w.gen = gen
	w.revived++
	w.revivedAt = time.Now()
	w.mu.Unlock()
	w.d.opts.Obs.Event("revival", w.model, w.shard, "revived as generation %d", gen)
}

// strike counts a failed revival attempt; enough strikes quarantine the
// pair for good.
func (w *worker) strike(err error, max int) (quarantined bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.strikeLocked(err, max)
}

// strikeLocked is the single strike/quarantine rule (callers hold w.mu):
// whether the strike comes from a failed revival dial or a death inside
// the poison window, quarantine always reports the same descriptive
// terminal status.
func (w *worker) strikeLocked(err error, max int) bool {
	w.strikes++
	if w.strikes >= max {
		w.quarantined = true
		w.down = fmt.Errorf("sched: model %q shard %d quarantined after %d strikes: %w", w.model, w.shard, w.strikes, err)
		w.d.opts.Obs.Event("quarantine", w.model, w.shard, "%d strikes: %v", w.strikes, err)
	}
	return w.quarantined
}

func (w *worker) isQuarantined() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.quarantined
}
