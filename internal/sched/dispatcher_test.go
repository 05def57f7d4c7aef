package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pasnet/internal/tensor"
)

// fakeSession is a controllable FlushSession: it "evaluates" a flush by
// sleeping perRow per batch row and returns one logit per row, fails
// flushes on command, and records what it served. It lets the dispatcher
// and lifecycle be tested without standing up 2PC pairs.
type fakeSession struct {
	perRow time.Duration
	// failAfter: fail every flush once this many have succeeded (-1:
	// never fail).
	failAfter int32

	flushes atomic.Int32
	rows    atomic.Int64
	killed  atomic.Bool
	closed  atomic.Bool

	// packed records every flush's layout: each row's first element.
	mu     sync.Mutex
	packed [][]float64
}

func newFakeSession(perRow time.Duration, failAfter int32) *fakeSession {
	return &fakeSession{perRow: perRow, failAfter: failAfter}
}

func (f *fakeSession) BeginFlush(batch *tensor.Tensor) (func() ([]float64, error), error) {
	if f.failAfter >= 0 && f.flushes.Load() >= f.failAfter {
		return nil, fmt.Errorf("fake pair died (flush %d)", f.flushes.Load())
	}
	rows := int64(batch.Shape[0])
	if f.perRow > 0 {
		time.Sleep(time.Duration(rows) * f.perRow)
	}
	f.flushes.Add(1)
	f.rows.Add(rows)
	tags := make([]float64, rows)
	for i := range tags {
		tags[i] = batch.Data[i*batch.Len()/int(rows)]
	}
	f.mu.Lock()
	f.packed = append(f.packed, tags)
	f.mu.Unlock()
	logits := make([]float64, rows)
	for i := range logits {
		logits[i] = float64(i)
	}
	return func() ([]float64, error) { return logits, nil }, nil
}

func (f *fakeSession) RemainingBudget() int { return 42 }
func (f *fakeSession) Fallbacks() int       { return 0 }
func (f *fakeSession) Close() error         { f.closed.Store(true); return nil }
func (f *fakeSession) Kill()                { f.killed.Store(true) }

func query(rows int) *tensor.Tensor { return tensor.New(rows, 1, 2, 2) }

// addLanes registers n fake lanes for one model and returns them.
func addLanes(t *testing.T, d *Dispatcher, model string, sessions ...FlushSession) {
	t.Helper()
	for i, s := range sessions {
		if err := d.AddShard(model, i, s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundRobinRotation pins the baseline policy: sequential queries
// rotate over healthy lanes exactly like the pre-scheduler router.
func TestRoundRobinRotation(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: RoundRobin})
	a, b := newFakeSession(0, -1), newFakeSession(0, -1)
	addLanes(t, d, "m", a, b)
	for q := 0; q < 6; q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if a.flushes.Load() != 3 || b.flushes.Load() != 3 {
		t.Fatalf("round-robin served %d/%d flushes, want 3/3", a.flushes.Load(), b.flushes.Load())
	}
	if !a.closed.Load() || !b.closed.Load() {
		t.Fatal("Close must close every lane's session")
	}
}

// TestQueueAwareSteersAroundBacklog pins cold-start steering: with no
// latency data yet, queue-aware picking scores pure backlog, so while
// one lane chews a heavy flush the following light queries flow to the
// emptier lane instead of blindly alternating.
func TestQueueAwareSteersAroundBacklog(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: QueueAware})
	// Equal per-row speed on both lanes: neither drains fast enough to
	// perturb the counters mid-burst, so the picks are deterministic.
	busy, idle := newFakeSession(20*time.Millisecond, -1), newFakeSession(20*time.Millisecond, -1)
	addLanes(t, d, "m", busy, idle)
	// The heavy query lands on lane 0 (rotating start, empty fleet) and
	// keeps 8 rows in flight there for ~160ms.
	heavyWait := d.SubmitAsync("m", query(8))
	time.Sleep(5 * time.Millisecond) // let the worker move it in flight
	waits := make([]func() ([]float64, error), 6)
	for q := range waits {
		waits[q] = d.SubmitAsync("m", query(1))
	}
	for q, wait := range waits {
		if _, err := wait(); err != nil {
			t.Fatalf("light query %d: %v", q, err)
		}
	}
	if _, err := heavyWait(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Backlog scoring sends lights to the idle lane until its queue depth
	// outweighs the busy lane's 8 in-flight rows (the sixth light tips
	// the comparison): 5 of 6 steer away. Round-robin would send 3.
	if busy.rows.Load() != 9 || idle.rows.Load() != 5 {
		t.Fatalf("queue-aware routed %d rows to the busy lane and %d to the idle one; want 9 and 5",
			busy.rows.Load(), idle.rows.Load())
	}
}

// TestQueueAwareSteersByLatency pins measured steering: once the latency
// models are primed, a persistently slow lane is avoided even with equal
// backlogs — the estimated-completion score, not just depth.
func TestQueueAwareSteersByLatency(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: QueueAware})
	slow, fast := newFakeSession(60*time.Millisecond, -1), newFakeSession(time.Millisecond, -1)
	addLanes(t, d, "m", slow, fast)
	// Prime both models: the first query rotates onto the slow lane, the
	// second ties on estimates and rotates onto the fast lane.
	for q := 0; q < 2; q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatal(err)
		}
	}
	if slow.rows.Load() != 1 || fast.rows.Load() != 1 {
		t.Fatalf("priming spread %d/%d rows, want 1/1", slow.rows.Load(), fast.rows.Load())
	}
	// Burst: every query estimates ~60ms on the slow lane vs ~1ms (plus a
	// shallow queue) on the fast one.
	waits := make([]func() ([]float64, error), 6)
	for q := range waits {
		waits[q] = d.SubmitAsync("m", query(1))
	}
	for q, wait := range waits {
		if _, err := wait(); err != nil {
			t.Fatalf("burst query %d: %v", q, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if slow.rows.Load() != 1 {
		t.Fatalf("measured-slow lane served %d rows after priming, want none beyond the primer", slow.rows.Load())
	}
}

// TestBatchGathering pins lane batching: queries queued while a flush
// runs are gathered into the next flush up to Options.Batch
// (work-conserving), a partial batch flushes once the gather window
// expires, and one submitter's SubmitAsync stream packs in submission
// order with each wait receiving its own rows.
func TestBatchGathering(t *testing.T) {
	t.Run("work-conserving", func(t *testing.T) {
		d := NewDispatcher(Options{Batch: 4, Policy: RoundRobin})
		s := newFakeSession(5*time.Millisecond, -1)
		addLanes(t, d, "m", s)
		var waits []func() ([]float64, error)
		for q := 0; q < 9; q++ {
			waits = append(waits, d.SubmitAsync("m", query(1)))
		}
		for q, wait := range waits {
			if _, err := wait(); err != nil {
				t.Fatalf("query %d: %v", q, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if f := s.flushes.Load(); f < 3 || f > 9 {
			t.Fatalf("9 queries at Batch=4 ran %d flushes, want between 3 and 9", f)
		}
		for _, tags := range s.packed {
			if len(tags) > 4 {
				t.Fatalf("a flush packed %d queries past Batch=4", len(tags))
			}
		}
		if s.rows.Load() != 9 {
			t.Fatalf("served %d rows, want 9", s.rows.Load())
		}
	})
	t.Run("window-flushes-partial-batch", func(t *testing.T) {
		const window = 30 * time.Millisecond
		d := NewDispatcher(Options{Batch: 100, Window: window})
		s := newFakeSession(0, -1)
		addLanes(t, d, "m", s)
		start := time.Now()
		// The lone query must flush via the window, not hang for 99 peers.
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < window {
			t.Fatalf("partial batch flushed after %v, before the %v gather window expired", el, window)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if s.flushes.Load() != 1 || s.rows.Load() != 1 {
			t.Fatalf("lone query ran %d flushes / %d rows, want 1 / 1", s.flushes.Load(), s.rows.Load())
		}
	})
	t.Run("submission-order", func(t *testing.T) {
		// A window far longer than four back-to-back SubmitAsync calls
		// take: the gather ends when the batch fills, so all four ride one
		// flush — a deterministic layout, hence reproducible fixed-point
		// noise, for a connection reader draining a pipelined stream.
		d := NewDispatcher(Options{Batch: 4, Window: 10 * time.Second})
		s := newFakeSession(0, -1)
		addLanes(t, d, "m", s)
		waits := make([]func() ([]float64, error), 4)
		for i := range waits {
			x := query(1)
			x.Data[0] = float64(10 + i)
			waits[i] = d.SubmitAsync("m", x)
		}
		for i, wait := range waits {
			logits, err := wait()
			if err != nil {
				t.Fatal(err)
			}
			// The fake session's logit is the row's index in the flush.
			if len(logits) != 1 || logits[0] != float64(i) {
				t.Fatalf("wait %d got row %v of the flush, want its own row %d", i, logits, i)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if len(s.packed) != 1 || len(s.packed[0]) != 4 {
			t.Fatalf("four pipelined queries at Batch=4 packed as %v, want one flush of 4", s.packed)
		}
		for i, tag := range s.packed[0] {
			if tag != float64(10+i) {
				t.Fatalf("flush packed out of submission order: %v", s.packed[0])
			}
		}
	})
}

// TestFailoverToHealthyLane pins transparent failover: a lane that dies
// mid-deployment loses no queries — they re-dispatch to the surviving
// lane, the dead lane reports its terminal error, and with every lane
// down, submissions fail descriptively.
func TestFailoverToHealthyLane(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: RoundRobin})
	dying, healthy := newFakeSession(0, 1), newFakeSession(0, -1)
	addLanes(t, d, "m", dying, healthy)
	for q := 0; q < 5; q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	var downs, up int
	for _, st := range d.Status() {
		if st.Down != "" {
			downs++
			if !strings.Contains(st.Down, "fake pair died") {
				t.Fatalf("down reason %q must carry the terminal error", st.Down)
			}
			if !dying.killed.Load() {
				t.Fatal("a dead lane's session must be killed")
			}
		} else {
			up++
		}
	}
	if downs != 1 || up != 1 {
		t.Fatalf("want exactly one down and one healthy lane, got %d/%d", downs, up)
	}

	solo := NewDispatcher(Options{Batch: 1})
	addLanes(t, solo, "m", newFakeSession(0, 0))
	_, err := solo.Submit("m", query(1))
	if err == nil || !strings.Contains(err.Error(), "all 1 shard(s)") {
		t.Fatalf("all-down must fail descriptively, got: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownModel pins the no-lane error.
func TestUnknownModel(t *testing.T) {
	d := NewDispatcher(Options{})
	if _, err := d.Submit("ghost", query(1)); err == nil || !strings.Contains(err.Error(), "no model") {
		t.Fatalf("unknown model must fail descriptively, got: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsAndRejects pins graceful shutdown: queries accepted
// before Close all complete, submissions after Close get
// ErrDispatcherClosed, and Close is idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	d := NewDispatcher(Options{Batch: 2, Policy: RoundRobin})
	s := newFakeSession(3*time.Millisecond, -1)
	addLanes(t, d, "m", s)
	var waits []func() ([]float64, error)
	for q := 0; q < 8; q++ {
		waits = append(waits, d.SubmitAsync("m", query(1)))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for q, wait := range waits {
		if _, err := wait(); err != nil {
			t.Fatalf("pre-close query %d must drain, got: %v", q, err)
		}
	}
	if _, err := d.Submit("m", query(1)); !errors.Is(err, ErrDispatcherClosed) {
		t.Fatalf("post-close submit must get ErrDispatcherClosed, got: %v", err)
	}
	if !s.closed.Load() {
		t.Fatal("Close must close the session")
	}
	if err := d.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestSubmitVsCloseRace hammers concurrent submissions against Close:
// every submitter must get either its logits or a descriptive shutdown
// error — never a hang, a lost reply, or a panic. Run under -race in CI.
func TestSubmitVsCloseRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		d := NewDispatcher(Options{Batch: 4, Policy: QueueAware, QueueCap: 4})
		addLanes(t, d, "m", newFakeSession(100*time.Microsecond, -1), newFakeSession(100*time.Microsecond, -1))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < 10; q++ {
					logits, err := d.Submit("m", query(1))
					switch {
					case err == nil:
						if len(logits) != 1 {
							t.Errorf("got %d logits for a 1-row query", len(logits))
							return
						}
					case errors.Is(err, ErrDispatcherClosed):
						return
					default:
						t.Errorf("submit vs close: unexpected error: %v", err)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestStatusFields pins the new telemetry: budget and EWMA flow from the
// session and completed flushes into Status.
func TestStatusFields(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: RoundRobin})
	addLanes(t, d, "m", newFakeSession(2*time.Millisecond, -1))
	if _, err := d.Submit("m", query(4)); err != nil {
		t.Fatal(err)
	}
	sts := d.Status()
	if len(sts) != 1 {
		t.Fatalf("want 1 lane status, got %d", len(sts))
	}
	st := sts[0]
	if st.Budget != 42 {
		t.Fatalf("budget %d must come from the session's stamp round, want 42", st.Budget)
	}
	if st.EWMAFlushMS <= 0 && st.EWMARowMS <= 0 {
		t.Fatal("the latency model must be primed after the first completed flush")
	}
	if st.Queries != 1 || st.Flushes != 1 || st.QueuedRows != 0 || st.InFlightRows != 0 {
		t.Fatalf("counters %+v, want 1 query / 1 flush and empty backlog", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
