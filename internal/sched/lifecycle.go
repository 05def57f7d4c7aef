package sched

import (
	"sync"
	"time"
)

// ReviveFunc builds one shard lane's serving session at a new lifecycle
// generation: re-dial the pair's link, re-handshake at that generation,
// rebuild the session — typically with a fresh dealer stream and a fresh
// preprocessed store pair derived from the generation, so the new pair
// never replays correlation randomness an earlier generation already
// burned (gateway.Router supplies this). It serves both generation
// changes: reviving a dead lane and rolling a live one over before its
// store runs dry.
type ReviveFunc func(model string, shard, gen int) (FlushSession, error)

// LifecycleOptions tunes revival pacing, the poisoned-pair quarantine and
// budget rollover.
type LifecycleOptions struct {
	// InitialBackoff is the wait before the first revival attempt
	// (default 50ms); the wait doubles per failed attempt up to
	// MaxBackoff (default 5s).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// MaxStrikes quarantines a pair after this many strikes — failed
	// revival dials, or deaths within PoisonWindow of a revival (default
	// 3). A quarantined pair stays down for the deployment's lifetime,
	// exactly like the pre-lifecycle gateway, so a chronically poisoned
	// endpoint cannot soak the fleet in reconnect churn.
	MaxStrikes int
	// PoisonWindow is how soon after a revival a death counts as a strike
	// (default 10s): a pair that serves longer than this has proven the
	// revival good, and its strike clock effectively resets.
	PoisonWindow time.Duration
	// BudgetFloor, when positive, rolls a serving lane over to its next
	// generation before its preprocessed store runs dry: a completed
	// flush whose session reports a remaining budget (ShardStatus.Budget
	// units — correlations, one tape's worth per flush of a geometry)
	// below the floor starts building the next generation at once, and
	// the lane swaps onto it between flushes without going down. Size it
	// to the flushes a build takes. Zero: generations change only when a
	// pair dies.
	BudgetFloor int
}

// withDefaults fills zero fields.
func (o LifecycleOptions) withDefaults() LifecycleOptions {
	if o.InitialBackoff <= 0 {
		o.InitialBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxStrikes <= 0 {
		o.MaxStrikes = 3
	}
	if o.PoisonWindow <= 0 {
		o.PoisonWindow = 10 * time.Second
	}
	return o
}

// Lifecycle owns every generation change of the dispatcher's lanes. A
// lane moves to its next generation in two cases: it died (revival: wait
// out an exponential backoff, then rebuild — pairs that keep failing
// collect strikes and are quarantined at MaxStrikes), or a completed flush
// reported its store budget below BudgetFloor (rollover: rebuild at once;
// a failed build counts no strike, the next flush retries). Both build
// through the same ReviveFunc at a never-attempted generation and install
// the result the same way — a marker on the lane queue that the lane's
// worker handles between flushes.
type Lifecycle struct {
	d      *Dispatcher
	revive ReviveFunc
	opts   LifecycleOptions

	stopCh chan struct{}
	// smu guards stopped so spawn never races Stop's wg.Wait with a
	// wg.Add (a documented WaitGroup misuse): a generation change that
	// loses the race with shutdown simply never starts.
	smu     sync.Mutex
	stopped bool
	wg      sync.WaitGroup
}

func newLifecycle(d *Dispatcher, revive ReviveFunc, opts LifecycleOptions) *Lifecycle {
	return &Lifecycle{d: d, revive: revive, opts: opts.withDefaults(), stopCh: make(chan struct{})}
}

// spawn runs f on a tracked goroutine unless the lifecycle has stopped.
func (lc *Lifecycle) spawn(f func()) bool {
	lc.smu.Lock()
	defer lc.smu.Unlock()
	if lc.stopped {
		return false
	}
	lc.wg.Add(1)
	go func() {
		defer lc.wg.Done()
		f()
	}()
	return true
}

// notify hands a freshly-down lane to a revival loop. Called once per
// death (the lane's fail() deduplicates).
func (lc *Lifecycle) notify(w *worker) {
	lc.spawn(func() { lc.revival(w) })
}

// Stop halts all revival loops and waits out every generation change in
// flight. After Stop, dead lanes stay dead (the dispatcher is usually
// closing).
func (lc *Lifecycle) Stop() {
	lc.smu.Lock()
	if !lc.stopped {
		lc.stopped = true
		close(lc.stopCh)
	}
	lc.smu.Unlock()
	lc.wg.Wait()
}

// revival is one lane's backoff-and-rebuild loop.
func (lc *Lifecycle) revival(w *worker) {
	backoff := lc.opts.InitialBackoff
	for {
		select {
		case <-lc.stopCh:
			return
		case <-time.After(backoff):
		}
		if w.isQuarantined() {
			return
		}
		err := lc.build(w, false)
		if err == nil || w.strike(err, lc.opts.MaxStrikes) {
			return
		}
		backoff *= 2
		if backoff > lc.opts.MaxBackoff {
			backoff = lc.opts.MaxBackoff
		}
	}
}

// rollover is the budget check a lane runs after every completed flush:
// when sess — the session that flushed — still serves the lane and
// reports a budget below the floor, build the next generation now. A
// superseded session, a down lane, a live-dealer session (budget -1) or a
// rollover already in flight skip the check.
func (lc *Lifecycle) rollover(w *worker, sess FlushSession) {
	floor := lc.opts.BudgetFloor
	budget := sess.RemainingBudget()
	if floor <= 0 || budget < 0 || budget >= floor {
		return
	}
	w.mu.Lock()
	if sess != w.sess || w.down != nil || w.rolling {
		w.mu.Unlock()
		return
	}
	w.rolling = true
	w.mu.Unlock()
	started := lc.spawn(func() {
		w.d.opts.Obs.Event("budget-low", w.model, w.shard,
			"budget %d below floor %d; building next generation", budget, floor)
		if lc.build(w, true) != nil {
			w.endRollover() // no strike: the next flush retries
		}
	})
	if !started {
		w.endRollover()
	}
}

// build claims the lane's next never-attempted generation, builds its
// session through the ReviveFunc and queues the install marker. Every
// attempt takes a fresh generation — never a retried one: the vendor
// claims a generation before session setup completes, so an attempt that
// failed after the claim (a transient dial or provisioning error) has
// burned its generation for good, and re-dialing it would be rejected as
// a duplicate forever.
func (lc *Lifecycle) build(w *worker, rollover bool) error {
	gen := w.nextGen()
	sess, err := lc.revive(w.model, w.shard, gen)
	if err != nil {
		return err
	}
	// Safe without the dispatcher's send tracking: Close stops the
	// lifecycle (waiting this goroutine out) before it closes any queue,
	// and the lane's worker drains its queue until then.
	w.queue <- &item{install: &install{sess: sess, gen: gen, rollover: rollover}}
	return nil
}
