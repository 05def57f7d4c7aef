package gateway

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// This file is the fault-injection hardening suite: a fleet under
// deterministic chaos — a shard link stalling mid-protocol, dropping, or
// corrupting a frame — must keep serving every query bit-identically on
// its surviving shards, mark exactly the faulted pair down with a
// descriptive reason, and never wedge a lane worker past the flush
// deadline. A watchdog turns any wedge into a stack dump instead of a
// test-suite timeout.

// watchdog panics with a full goroutine dump if the test has not called
// stop within budget — the deadlock detector the flush deadline is
// supposed to make unnecessary.
func watchdog(t *testing.T, budget time.Duration) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(budget):
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			panic(fmt.Sprintf("chaos watchdog: test wedged for %v — a worker is stuck past its flush deadline\n%s", budget, buf[:n]))
		}
	}()
	return func() { close(done) }
}

// faultDialer wraps a dial function, decorating chosen (model, shard)
// links with armed-on-demand FaultConns.
type faultDialer struct {
	dial  func(ShardDesc) (transport.Conn, error)
	plans map[string]transport.FaultPlan

	mu    sync.Mutex
	conns map[string]*transport.FaultConn
}

func newFaultDialer(dial func(ShardDesc) (transport.Conn, error), plans map[string]transport.FaultPlan) *faultDialer {
	return &faultDialer{dial: dial, plans: plans, conns: map[string]*transport.FaultConn{}}
}

func (fd *faultDialer) Dial(desc ShardDesc) (transport.Conn, error) {
	c, err := fd.dial(desc)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%d", desc.Model, desc.Shard)
	plan, ok := fd.plans[key]
	if !ok {
		return c, nil
	}
	fc := transport.NewFaultConn(c, plan)
	fd.mu.Lock()
	fd.conns[key] = fc
	fd.mu.Unlock()
	return fc, nil
}

// arm starts fault scheduling on one link (setup traffic passes clean).
func (fd *faultDialer) arm(t *testing.T, key string) {
	t.Helper()
	fd.mu.Lock()
	fc := fd.conns[key]
	fd.mu.Unlock()
	if fc == nil {
		t.Fatalf("no fault conn dialed for %s", key)
	}
	fc.Arm()
}

// statusOf picks one (model, shard) entry out of a status snapshot.
func statusOf(t *testing.T, sts []ShardStatus, model string, shard int) ShardStatus {
	t.Helper()
	for _, st := range sts {
		if st.Model == model && st.Shard == shard {
			return st
		}
	}
	t.Fatalf("no status entry for %s/%d", model, shard)
	return ShardStatus{}
}

// TestChaosSurvivingShardsBitIdentical is the chaos headline: with one
// shard link of the "victim" model faulted (stall, drop, or frame
// corruption), every query of every model still succeeds — the faulted
// query fails over — and the surviving shards' results are bit-identical
// to fault-free direct runs of the same pairs and flush sequences. Only
// the faulted pair is marked down; a stall is killed by the flush
// deadline (never wedging the worker) and counted as a deadline death.
func TestChaosSurvivingShardsBitIdentical(t *testing.T) {
	scenarios := []struct {
		name          string
		plan          transport.FaultPlan
		wantDeadlined bool
	}{
		// The stall is far longer than the flush deadline: only the
		// deadline can unwedge the worker.
		{"stall", transport.FaultPlan{StallAt: 1, StallFor: time.Hour}, true},
		{"drop", transport.FaultPlan{DropAt: 1}, false},
		{"corrupt", transport.FaultPlan{CorruptAt: 1}, false},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			stop := watchdog(t, 60*time.Second)
			defer stop()
			reg := NewRegistry()
			mV, inV := testModel("victim", 2, 8, 3, 101)
			mS, inS := testModel("survivor", 3, 6, 5, 202)
			if err := reg.Register(&ModelSpec{ID: "victim", Model: mV, Input: inV, Shards: Shards("victim", 2, 77, "")}); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(&ModelSpec{ID: "survivor", Model: mS, Input: inS, Shards: Shards("survivor", 2, 77, "")}); err != nil {
				t.Fatal(err)
			}
			lb := NewLoopback(reg)
			fd := newFaultDialer(lb.Dial, map[string]transport.FaultPlan{"victim/1": sc.plan})
			rt, err := NewRouter(reg, RouterOptions{
				Batch:         1,
				Dial:          fd.Dial,
				FlushDeadline: 300 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Setup (weight sharing) ran clean; chaos starts now.
			fd.arm(t, "victim/1")

			specV, _ := reg.Lookup("victim")
			specS, _ := reg.Lookup("survivor")
			rV, rS := rng.New(5), rng.New(6)
			qV := make([]*tensor.Tensor, 6)
			for i := range qV {
				qV[i] = tensor.New(1, 2, 8, 8).RandNorm(rV, 0.5)
			}
			qS := make([]*tensor.Tensor, 6)
			for i := range qS {
				qS[i] = tensor.New(1, 3, 6, 6).RandNorm(rS, 0.5)
			}
			// Sequential blocking submits: deterministic round-robin
			// assignment. Victim query 0 lands on shard 0; query 1 lands on
			// shard 1, hits the fault, and fails over to shard 0; every
			// later victim query serves on shard 0. No query may fail.
			gotV := make([][]float64, len(qV))
			for i, x := range qV {
				if gotV[i], err = rt.Submit("victim", x); err != nil {
					t.Fatalf("victim query %d must survive the fault via failover, got: %v", i, err)
				}
			}
			gotS := make([][]float64, len(qS))
			for i, x := range qS {
				if gotS[i], err = rt.Submit("survivor", x); err != nil {
					t.Fatalf("survivor query %d: %v", i, err)
				}
			}

			sts := rt.Status()
			faulted := statusOf(t, sts, "victim", 1)
			if faulted.Down == "" {
				t.Fatalf("faulted pair must be marked down, got %+v", faulted)
			}
			if sc.wantDeadlined && faulted.Deadlined < 1 {
				t.Fatalf("a stalled pair must die by flush deadline, got %+v", faulted)
			}
			for _, healthy := range []ShardStatus{
				statusOf(t, sts, "victim", 0),
				statusOf(t, sts, "survivor", 0),
				statusOf(t, sts, "survivor", 1),
			} {
				if healthy.Down != "" || healthy.Quarantined {
					t.Fatalf("fault must stay contained to victim/1, got %+v", healthy)
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			// The victim's vendor side must have noticed its torn pair.
			if err := lb.Wait(); err == nil {
				t.Fatal("the faulted link's vendor side must surface an error")
			}

			// Bit-identical survival: victim shard 0 served all six queries
			// in submission order (q1 via failover); survivor shards
			// alternated. Fault-free direct runs of the same pairs must
			// reproduce every logit exactly — chaos on one pair must not
			// perturb any other pair's protocol stream.
			directV0 := directShardRun(t, specV, specV.Shards[0], qV)
			for i := range qV {
				if pi.MaxAbsErr(gotV[i], directV0[i]) != 0 {
					t.Fatalf("victim query %d not bit-identical to the fault-free direct run", i)
				}
			}
			var evens, odds []*tensor.Tensor
			for i, x := range qS {
				if i%2 == 0 {
					evens = append(evens, x)
				} else {
					odds = append(odds, x)
				}
			}
			directS0 := directShardRun(t, specS, specS.Shards[0], evens)
			directS1 := directShardRun(t, specS, specS.Shards[1], odds)
			for i := range qS {
				want := directS0[i/2]
				if i%2 == 1 {
					want = directS1[i/2]
				}
				if pi.MaxAbsErr(gotS[i], want) != 0 {
					t.Fatalf("survivor query %d not bit-identical to the fault-free direct run", i)
				}
			}
		})
	}
}

// TestBackgroundReprovisioning is the store-rollover end-to-end: a
// store-backed single-shard fleet under back-to-back traffic rolls its
// lane over to freshly provisioned generations before each store runs
// dry — zero failed queries, zero shed, zero pair deaths, zero fallbacks,
// every generation change a graceful rollover, never a revival — and
// every logit stays correct.
func TestBackgroundReprovisioning(t *testing.T) {
	stop := watchdog(t, 120*time.Second)
	defer stop()
	storeRoot := t.TempDir()
	m, input := testModel("m", 2, 8, 3, 101)
	reg := NewRegistry()
	if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 77, storeRoot)}); err != nil {
		t.Fatal(err)
	}
	// 12 flushes per generation, rolling over below 4 flushes' worth
	// (Status.Budget counts correlations, one tape per flush).
	const flushes = 12
	if _, err := WriteShardStores(reg, []int{1}, flushes); err != nil {
		t.Fatal(err)
	}
	prog, err := pi.Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	shape := []int{1, 2, 8, 8}
	tape, err := pi.TraceTape(prog, shape)
	if err != nil {
		t.Fatal(err)
	}
	floor := 4 * len(tape)
	lb := NewLoopback(reg)
	rt, err := NewRouter(reg, RouterOptions{
		Batch:     1,
		Dial:      lb.Dial,
		Lifecycle: &sched.LifecycleOptions{BudgetFloor: floor},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := reg.Lookup("m")
	r := rng.New(5)
	query := func(i int) ShardStatus {
		t.Helper()
		x := tensor.New(shape...).RandNorm(r, 0.5)
		logits, err := rt.Submit("m", x)
		if err != nil {
			t.Fatalf("query %d must ride a rollover, not fail: %v", i, err)
		}
		if d := pi.MaxAbsErr(logits, spec.Model.Net.Forward(x, false).Data); d > 0.05 {
			t.Fatalf("query %d diff %v", i, d)
		}
		st := rt.Status()[0]
		if st.Down != "" || st.Revived != 0 || st.Shed != 0 || st.Fallbacks != 0 {
			t.Fatalf("query %d: a rolling fleet must never die, shed, or fall back, got %+v", i, st)
		}
		return st
	}
	// 40 back-to-back queries. The flush stamped 3 flushes' worth — the
	// tenth of a generation — starts a rollover; the test then waits for
	// it to land before the next query. The 3-flush runway the floor
	// leaves lasts a millisecond or two for this test model, less than a
	// build (store pair, dial, weight sharing), so an unpaced client would
	// time the build instead of testing the mechanism; sizing the floor
	// to the build is the deployment's job. Paced, every generation serves exactly 10 flushes
	// and the 40th query starts the fourth rollover.
	for i := 0; i < 40; i++ {
		st := query(i)
		if st.Budget < 0 || st.Budget >= floor {
			continue
		}
		for deadline := time.Now().Add(10 * time.Second); rt.Status()[0].Gen == st.Gen; {
			if time.Now().After(deadline) {
				t.Fatalf("query %d crossed the floor but no rollover landed: %+v", i, rt.Status()[0])
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Budget is -1 until a generation's first flush, so the final status
	// is read after one on the newest generation: its first stamp is the
	// whole fresh store, and no rollover can be in flight.
	st := query(40)
	if st.Gen != 4 || st.Reprovisioned != 4 || st.Budget != flushes*len(tape) {
		t.Fatalf("want 4 rollovers and a full fresh store (budget %d), got %+v", flushes*len(tape), st)
	}
	// Each rollover really ran store-fed from its own generation directory.
	for gen := 1; gen <= st.Gen; gen++ {
		for party := 0; party < 2; party++ {
			if _, err := os.Stat(filepath.Join(GenStoreDir(spec.Shards[0], gen), corr.FileName(party, shape))); err != nil {
				t.Fatalf("generation-%d store file: %v", gen, err)
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Every superseded generation closed gracefully (sentinel, not a torn
	// link): the vendor side saw no error at all.
	if err := lb.Wait(); err != nil {
		t.Fatalf("rollover deployment must close cleanly on the vendor side too: %v", err)
	}
}
