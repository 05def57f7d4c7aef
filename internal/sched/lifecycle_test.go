package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pasnet/internal/tensor"
)

// waitFor polls cond up to ~2s, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLifecycleRevival pins the headline lifecycle behavior: a dead lane
// is re-dialed at the next generation instead of staying retired, and
// serves again afterwards.
func TestLifecycleRevival(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1})
	var revives atomic.Int32
	d.EnableLifecycle(func(model string, shard, gen int) (FlushSession, error) {
		revives.Add(1)
		if model != "m" || shard != 0 || gen != 1 {
			return nil, fmt.Errorf("revive called with %s/%d gen %d, want m/0 gen 1", model, shard, gen)
		}
		return newFakeSession(0, -1), nil
	}, LifecycleOptions{InitialBackoff: 5 * time.Millisecond})
	addLanes(t, d, "m", newFakeSession(0, 1)) // dies on its second flush
	if _, err := d.Submit("m", query(1)); err != nil {
		t.Fatal(err)
	}
	// The second query kills the only lane: with no healthy lane left the
	// query fails, and the lifecycle begins reviving in the background.
	if _, err := d.Submit("m", query(1)); err == nil || !strings.Contains(err.Error(), "are down") {
		t.Fatalf("query on the dying lane must fail all-down, got: %v", err)
	}
	waitFor(t, "lane revival", func() bool {
		st := d.Status()[0]
		return st.Down == "" && st.Revived == 1 && st.Gen == 1
	})
	if _, err := d.Submit("m", query(1)); err != nil {
		t.Fatalf("revived lane must serve again: %v", err)
	}
	if revives.Load() != 1 {
		t.Fatalf("revive ran %d times, want 1", revives.Load())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleGenerationNeverRetried pins the claim-burn rule: a failed
// revival attempt may have claimed its generation on the vendor before
// dying, so the next attempt must dial a strictly fresh generation —
// retrying the burned one would be rejected as a duplicate forever,
// wedging revival into spurious quarantine.
func TestLifecycleGenerationNeverRetried(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1})
	var gens []int
	var mu sync.Mutex
	d.EnableLifecycle(func(model string, shard, gen int) (FlushSession, error) {
		mu.Lock()
		gens = append(gens, gen)
		n := len(gens)
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("transient dial failure after the claim")
		}
		return newFakeSession(0, -1), nil
	}, LifecycleOptions{InitialBackoff: 2 * time.Millisecond, MaxStrikes: 5})
	addLanes(t, d, "m", newFakeSession(0, 0))
	_, _ = d.Submit("m", query(1))
	waitFor(t, "revival after a failed attempt", func() bool {
		st := d.Status()[0]
		return st.Down == "" && st.Revived == 1
	})
	mu.Lock()
	attempted := append([]int(nil), gens...)
	mu.Unlock()
	if len(attempted) != 2 || attempted[0] != 1 || attempted[1] != 2 {
		t.Fatalf("revival attempts claimed generations %v, want [1 2] (never a retry of a burned generation)", attempted)
	}
	if st := d.Status()[0]; st.Gen != 2 {
		t.Fatalf("revived lane serves generation %d, want 2", st.Gen)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleBackoffAndQuarantine pins the failure arc: revival dials
// that keep erroring collect strikes and the pair is quarantined at
// MaxStrikes, with a descriptive terminal status.
func TestLifecycleBackoffAndQuarantine(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1})
	var attempts atomic.Int32
	d.EnableLifecycle(func(model string, shard, gen int) (FlushSession, error) {
		attempts.Add(1)
		return nil, fmt.Errorf("endpoint still unreachable")
	}, LifecycleOptions{InitialBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, MaxStrikes: 3})
	addLanes(t, d, "m", newFakeSession(0, 0))
	if _, err := d.Submit("m", query(1)); err == nil {
		t.Fatal("query on an instantly-dying solo lane must fail")
	}
	waitFor(t, "quarantine", func() bool { return d.Status()[0].Quarantined })
	st := d.Status()[0]
	if !strings.Contains(st.Down, "quarantined") || !strings.Contains(st.Down, "unreachable") {
		t.Fatalf("quarantine status %q must name the verdict and the cause", st.Down)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("revival attempted %d times before quarantine, want MaxStrikes=3", got)
	}
	// Quarantine is terminal: no further revival, submissions stay failed.
	time.Sleep(30 * time.Millisecond)
	if got := attempts.Load(); got != 3 {
		t.Fatalf("quarantined lane must never be re-dialed again (saw %d attempts)", got)
	}
	if _, err := d.Submit("m", query(1)); err == nil {
		t.Fatal("quarantined solo lane must keep failing submissions")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonWindowStrikes pins the re-death strike: a pair that dies
// right after each revival is quarantined rather than revived forever.
func TestPoisonWindowStrikes(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1})
	d.EnableLifecycle(func(model string, shard, gen int) (FlushSession, error) {
		return newFakeSession(0, 0), nil // revives into a pair that dies on first use
	}, LifecycleOptions{InitialBackoff: 2 * time.Millisecond, MaxStrikes: 2, PoisonWindow: time.Minute})
	addLanes(t, d, "m", newFakeSession(0, 0))
	for i := 0; i < 20 && !d.Status()[0].Quarantined; i++ {
		// Each submission kills the freshly-revived pair within the poison
		// window, accumulating strikes.
		_, _ = d.Submit("m", query(1))
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, "poisoned-pair quarantine", func() bool { return d.Status()[0].Quarantined })
	st := d.Status()[0]
	if st.Revived < 1 {
		t.Fatalf("pair must have been revived at least once before quarantine, got %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStrikesResetAfterProvenRevival pins the poison-window boundary: a
// pair that serves past the window has proven its revival good, so a
// later death starts a fresh incident instead of inheriting old strikes
// — blips spread over a long deployment can never add up to quarantine.
func TestStrikesResetAfterProvenRevival(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1})
	d.EnableLifecycle(func(model string, shard, gen int) (FlushSession, error) {
		return newFakeSession(0, 2), nil // each revival serves two flushes, then dies
	}, LifecycleOptions{InitialBackoff: 2 * time.Millisecond, MaxStrikes: 2, PoisonWindow: 10 * time.Millisecond})
	addLanes(t, d, "m", newFakeSession(0, 2))
	// Each round: two served queries, a wait past the poison window, then
	// a killing query. With MaxStrikes=2, inherited strikes would
	// quarantine by the third round; resets must keep revivals coming.
	for round := 0; round < 4; round++ {
		for q := 0; q < 2; q++ {
			if _, err := d.Submit("m", query(1)); err != nil {
				t.Fatalf("round %d query %d: %v", round, q, err)
			}
		}
		time.Sleep(15 * time.Millisecond) // past the poison window: revival proven
		_, _ = d.Submit("m", query(1))    // kills the pair outside the window
		waitFor(t, "revival", func() bool {
			st := d.Status()[0]
			return st.Down == "" && st.Revived == round+1
		})
	}
	if st := d.Status()[0]; st.Quarantined {
		t.Fatalf("proven-good pair quarantined after spread-out deaths: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleStopsOnClose pins the shutdown interaction: Close stops
// pending revivals, so a deployment tears down promptly even with lanes
// mid-backoff.
func TestLifecycleStopsOnClose(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1})
	var revives atomic.Int32
	d.EnableLifecycle(func(model string, shard, gen int) (FlushSession, error) {
		revives.Add(1)
		return newFakeSession(0, -1), nil
	}, LifecycleOptions{InitialBackoff: time.Hour})
	addLanes(t, d, "m", newFakeSession(0, 0))
	_, _ = d.Submit("m", query(1))
	done := make(chan error, 1)
	go func() { done <- d.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close must not wait out an hour-long revival backoff")
	}
	if revives.Load() != 0 {
		t.Fatal("stopped lifecycle must not revive")
	}
}

// rolloverLane builds a one-lane dispatcher whose lifecycle rolls the
// lane over once a flush reports a budget below 10, building each new
// generation through revive. Revival backs off for an hour, so only
// rollovers build within a test.
func rolloverLane(t *testing.T, opts Options, first FlushSession, revive ReviveFunc, maxStrikes int) (*Dispatcher, *worker) {
	t.Helper()
	d := NewDispatcher(opts)
	d.EnableLifecycle(revive, LifecycleOptions{BudgetFloor: 10, InitialBackoff: time.Hour, MaxStrikes: maxStrikes})
	addLanes(t, d, "m", first)
	return d, d.groups["m"].workers[0]
}

// lowBudget is a healthy fake session whose budget already sits below
// rolloverLane's floor.
func lowBudget() *fakeSession {
	f := newFakeSession(0, -1)
	f.budget.Store(5)
	return f
}

// tagged is a one-row query whose first element identifies it in the
// fake sessions' packed-flush records.
func tagged(tag float64) *tensor.Tensor {
	x := query(1)
	x.Data[0] = tag
	return x
}

// TestRolloverOncePerGeneration pins the rollover trigger: crossing the
// budget floor starts exactly one build per generation, however many
// more flushes complete below the floor while that build is in flight.
func TestRolloverOncePerGeneration(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int32
	var mu sync.Mutex
	var gens []int
	d, _ := rolloverLane(t, Options{Batch: 1}, lowBudget(), func(model string, shard, gen int) (FlushSession, error) {
		calls.Add(1)
		<-gate
		mu.Lock()
		gens = append(gens, gen)
		mu.Unlock()
		return lowBudget(), nil // every generation starts below the floor too
	}, 0)
	for g := 1; g <= 2; g++ {
		for q := 0; q < 5; q++ {
			if _, err := d.Submit("m", query(1)); err != nil {
				t.Fatalf("generation %d query %d: %v", g-1, q, err)
			}
		}
		gate <- struct{}{}
		waitFor(t, "rollover install", func() bool {
			st := d.Status()[0]
			return st.Gen == g && st.Reprovisioned == g
		})
	}
	close(gate) // a stray third build must not wedge Close
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 || len(gens) != 2 || gens[0] != 1 || gens[1] != 2 {
		t.Fatalf("%d builds at generations %v, want exactly one per generation: [1 2]", n, gens)
	}
	if st := d.Status()[0]; st.Revived != 0 || st.Down != "" {
		t.Fatalf("a rollover is not a revival: %+v", st)
	}
}

// TestRolloverBatchBoundary pins where the install lands: between
// flushes, ending the batch it interrupts. Queries queued before the
// marker all flush on the old generation, later ones on the new — even
// with a gather window that would otherwise have packed them together.
func TestRolloverBatchBoundary(t *testing.T) {
	gate := make(chan struct{})
	old, next := lowBudget(), newFakeSession(0, -1)
	d, _ := rolloverLane(t, Options{Batch: 8, Window: 5 * time.Second}, old, func(model string, shard, gen int) (FlushSession, error) {
		<-gate
		return next, nil
	}, 0)
	// A full batch flushes at once and crosses the floor.
	warm := make([]func() ([]float64, error), 8)
	for i := range warm {
		warm[i] = d.SubmitAsync("m", query(1))
	}
	for _, wait := range warm {
		if _, err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	// q1 and q2 start a batch that waits out the window; the marker,
	// queued behind them once the build completes, ends it early.
	pre := []func() ([]float64, error){d.SubmitAsync("m", tagged(1)), d.SubmitAsync("m", tagged(2))}
	gate <- struct{}{}
	waitFor(t, "rollover install", func() bool { return d.Status()[0].Reprovisioned == 1 })
	post := []func() ([]float64, error){d.SubmitAsync("m", tagged(3)), d.SubmitAsync("m", tagged(4))}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for i, wait := range append(pre, post...) {
		if _, err := wait(); err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
	}
	old.mu.Lock()
	last := old.packed[len(old.packed)-1]
	old.mu.Unlock()
	next.mu.Lock()
	served := next.packed
	next.mu.Unlock()
	if len(last) != 2 || last[0] != 1 || last[1] != 2 {
		t.Fatalf("old generation's last flush packed %v, want [1 2]", last)
	}
	if len(served) != 1 || len(served[0]) != 2 || served[0][0] != 3 || served[0][1] != 4 {
		t.Fatalf("new generation packed %v, want one flush [3 4]", served)
	}
}

// TestSwapSessionGraceful pins how a rollover retires the old
// generation: a graceful Close (the end-of-session sentinel), never a
// Kill, and no query after the install touches it.
func TestSwapSessionGraceful(t *testing.T) {
	old, next := lowBudget(), newFakeSession(0, -1)
	d, _ := rolloverLane(t, Options{Batch: 1}, old, func(model string, shard, gen int) (FlushSession, error) {
		return next, nil
	}, 0)
	if _, err := d.Submit("m", query(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rollover install", func() bool { return d.Status()[0].Reprovisioned == 1 })
	if !old.closed.Load() || old.killed.Load() {
		t.Fatalf("a rollover must Close the old session, not Kill it (closed=%v killed=%v)", old.closed.Load(), old.killed.Load())
	}
	pre := old.flushes.Load()
	for q := 0; q < 3; q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatalf("post-rollover query %d: %v", q, err)
		}
	}
	if old.flushes.Load() != pre || next.flushes.Load() != 3 {
		t.Fatalf("post-rollover flushes: old +%d, new %d; want +0 and 3", old.flushes.Load()-pre, next.flushes.Load())
	}
	if st := d.Status()[0]; st.Gen != 1 || st.Reprovisioned != 1 || st.Revived != 0 {
		t.Fatalf("status %+v, want gen 1, reprovisioned 1, revived 0", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRolloverBuildFailureNoStrike pins the failed-build rule: a rollover
// that cannot build counts no strike (MaxStrikes 1 would quarantine on
// the first), burns its generation, and the next flush below the floor
// retries. Queries keep flowing until the retry installs; the loop is
// bounded by time rather than by a query count, because the builds run
// on their own goroutines and a loaded machine can serve any fixed number
// of fake flushes before scheduling them.
func TestRolloverBuildFailureNoStrike(t *testing.T) {
	var calls atomic.Int32
	d, _ := rolloverLane(t, Options{Batch: 1}, lowBudget(), func(model string, shard, gen int) (FlushSession, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("store provisioning failed")
		}
		return newFakeSession(0, -1), nil
	}, 1)
	deadline := time.Now().Add(10 * time.Second)
	for q := 0; d.Status()[0].Reprovisioned == 0 && time.Now().Before(deadline); q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatalf("query %d: a failed rollover must not take the lane down: %v", q, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st := d.Status()[0]
	if st.Reprovisioned != 1 || st.Gen != 2 || st.Quarantined || st.Down != "" || calls.Load() != 2 {
		t.Fatalf("status %+v after %d builds; want the retry at generation 2 installed, no strike", st, calls.Load())
	}
}

// TestRolloverSkipsSupersededSession pins the stale-completion rule: a
// flush completion reported by a session the lane has already rolled away
// from does not start another rollover, whatever budget it reports.
func TestRolloverSkipsSupersededSession(t *testing.T) {
	var calls atomic.Int32
	old := lowBudget()
	d, w := rolloverLane(t, Options{Batch: 1}, old, func(model string, shard, gen int) (FlushSession, error) {
		calls.Add(1)
		return newFakeSession(0, -1), nil
	}, 0)
	if _, err := d.Submit("m", query(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rollover install", func() bool { return d.Status()[0].Reprovisioned == 1 })
	d.lc.rollover(w, old) // the old session's late flush completion
	w.mu.Lock()
	rolling := w.rolling
	w.mu.Unlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if rolling || calls.Load() != 1 {
		t.Fatalf("superseded session's completion started a rollover (rolling=%v, builds=%d)", rolling, calls.Load())
	}
}

// TestSwapSessionOntoDeadLane pins the rollover × death race: a rollover
// whose lane died while it was building must kill its session (the pair
// would otherwise leak) instead of bringing up a lane revival owns.
func TestSwapSessionOntoDeadLane(t *testing.T) {
	gate := make(chan struct{})
	old, next := newFakeSession(0, 1), newFakeSession(0, -1) // old dies on its second flush
	old.budget.Store(5)
	d, _ := rolloverLane(t, Options{Batch: 1}, old, func(model string, shard, gen int) (FlushSession, error) {
		<-gate
		return next, nil
	}, 0)
	if _, err := d.Submit("m", query(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit("m", query(1)); err == nil {
		t.Fatal("the only lane dying must surface an error")
	}
	close(gate)
	waitFor(t, "rollover session killed", func() bool { return next.killed.Load() })
	if st := d.Status()[0]; st.Down == "" || st.Reprovisioned != 0 || st.Gen != 0 {
		t.Fatalf("a rollover must not install onto a dead lane: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
