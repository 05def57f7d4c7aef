package gateway

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/rng"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// This file extends the routing-equivalence suite to the dispatch
// scheduler: pipelined routing must be bit-identical to serialized
// routing on both sourcing paths, dead shards must come back through the
// lifecycle with fresh streams and fresh stores, the per-shard
// preprocessed budget must be visible in Status, and the router must
// shut down gracefully under concurrent submissions.

// routedRun stands up a fresh deployment (registry, loopback vendor,
// router with the given options), routes the given per-model query
// sequences through it with pipelined submission (all waits collected
// after all submits), and returns the per-model logits. Registries and
// stores are rebuilt per run — both are deterministic in the seeds, so
// two runs are comparable bit-for-bit.
func routedRun(t *testing.T, opts RouterOptions, storeFed bool, perModel int) map[string][][]float64 {
	t.Helper()
	storeRoot := ""
	if storeFed {
		storeRoot = t.TempDir()
	}
	reg := buildTwoModelRegistry(t, storeRoot)
	if storeFed {
		if _, err := WriteShardStores(reg, []int{1}, perModel); err != nil {
			t.Fatal(err)
		}
	}
	lb := NewLoopback(reg)
	opts.Dial = lb.Dial
	rt, err := NewRouter(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][][]float64{}
	for _, id := range reg.Models() {
		spec, _ := reg.Lookup(id)
		r := rng.New(900 + uint64(len(id)))
		waits := make([]func() ([]float64, error), perModel)
		for q := 0; q < perModel; q++ {
			x := tensor.New(1, spec.Input[0], spec.Input[1], spec.Input[2]).RandNorm(r, 0.5)
			waits[q] = rt.SubmitAsync(id, x)
		}
		for q, wait := range waits {
			logits, err := wait()
			if err != nil {
				t.Fatalf("%s query %d: %v", id, q, err)
			}
			out[id] = append(out[id], logits)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}
	return out
}

// TestPipelinedRoutingEquivalence extends the routing-equivalence suite
// through the scheduler: a pipelined router reproduces a serialized
// router's logits bit-for-bit on the live-dealer and the store-fed path.
// Batch=1 with round-robin picking keeps shard assignment and per-shard
// flush order deterministic, so the only degree of freedom is the flush
// schedule — which must not be observable in any output bit.
func TestPipelinedRoutingEquivalence(t *testing.T) {
	const perModel = 4
	for _, storeFed := range []bool{false, true} {
		name := "live"
		if storeFed {
			name = "store-fed"
		}
		t.Run(name, func(t *testing.T) {
			serial := routedRun(t, RouterOptions{Batch: 1}, storeFed, perModel)
			piped := routedRun(t, RouterOptions{Batch: 1, Pipeline: true}, storeFed, perModel)
			for id, want := range serial {
				got := piped[id]
				if len(got) != len(want) {
					t.Fatalf("%s: %d pipelined replies, want %d", id, len(got), len(want))
				}
				for q := range want {
					for i := range want[q] {
						if got[q][i] != want[q][i] {
							t.Fatalf("%s query %d logit %d: pipelined %v diverged from serialized %v",
								id, q, i, got[q][i], want[q][i])
						}
					}
				}
			}
		})
	}
}

// TestBudgetTelemetry pins the re-provision-before-exhaustion signal:
// Status carries each shard's remaining preprocessed budget from the
// source-stamp round, counting down as flushes consume the store, and -1
// on live-dealer shards.
func TestBudgetTelemetry(t *testing.T) {
	storeRoot := t.TempDir()
	m, input := testModel("m", 2, 8, 3, 101)
	shards := Shards("m", 2, 77, storeRoot)
	shards[1].StoreDir = "" // shard 1 stays on the live dealer
	reg := NewRegistry()
	if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteShardStores(reg, []int{1}, 3); err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(reg)
	rt, err := NewRouter(reg, RouterOptions{Batch: 1, Dial: lb.Dial})
	if err != nil {
		t.Fatal(err)
	}
	budgetOf := func(shard int) int {
		t.Helper()
		for _, st := range rt.Status() {
			if st.Shard == shard {
				return st.Budget
			}
		}
		t.Fatalf("no status for shard %d", shard)
		return 0
	}
	if b := budgetOf(0); b != -1 {
		t.Fatalf("shard 0 budget before any flush: %d, want -1 (no stamp yet)", b)
	}
	r := rng.New(5)
	q := func() *tensor.Tensor { return tensor.New(1, 2, 8, 8).RandNorm(r, 0.5) }
	// Queries 0/1 round-robin onto shards 0/1.
	for i := 0; i < 2; i++ {
		if _, err := rt.Submit("m", q()); err != nil {
			t.Fatal(err)
		}
	}
	first := budgetOf(0)
	if first <= 0 {
		t.Fatalf("store-fed shard budget after first flush: %d, want positive stamped count", first)
	}
	if b := budgetOf(1); b != -1 {
		t.Fatalf("live-dealer shard budget: %d, want -1", b)
	}
	// Two more queries: shard 0's second flush stamps a smaller budget.
	for i := 0; i < 2; i++ {
		if _, err := rt.Submit("m", q()); err != nil {
			t.Fatal(err)
		}
	}
	if second := budgetOf(0); second >= first {
		t.Fatalf("budget must count down across flushes: %d then %d", first, second)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}
}

// TestShardLifecycleRevival is the lifecycle end-to-end: a shard whose
// store runs dry dies, is revived at generation 1 with a fresh dealer
// stream and a freshly provisioned store pair in the generation's own
// directory, and serves store-fed again — instead of staying retired.
func TestShardLifecycleRevival(t *testing.T) {
	storeRoot := t.TempDir()
	m, input := testModel("m", 2, 8, 3, 101)
	reg := NewRegistry()
	if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 77, storeRoot)}); err != nil {
		t.Fatal(err)
	}
	// Budget: exactly two N=1 flushes before exhaustion.
	if _, err := WriteShardStores(reg, []int{1}, 2); err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(reg)
	rt, err := NewRouter(reg, RouterOptions{
		Batch:     1,
		Dial:      lb.Dial,
		Lifecycle: &sched.LifecycleOptions{InitialBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := reg.Lookup("m")
	r := rng.New(5)
	q := func() *tensor.Tensor { return tensor.New(1, 2, 8, 8).RandNorm(r, 0.5) }
	plain := func(x *tensor.Tensor) []float64 { return spec.Model.Net.Forward(x, false).Data }
	for i := 0; i < 2; i++ {
		if _, err := rt.Submit("m", q()); err != nil {
			t.Fatalf("budgeted query %d: %v", i, err)
		}
	}
	// The third query exhausts the store and kills the only pair; with
	// no healthy shard to fail over to, it errors descriptively.
	if _, err := rt.Submit("m", q()); err == nil || !strings.Contains(err.Error(), "are down") {
		t.Fatalf("query past the budget must fail all-down, got: %v", err)
	}
	// The lifecycle revives the pair at generation 1 in the background.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rt.Status()[0]
		if st.Down == "" && st.Gen == 1 && st.Revived == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never revived: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The revived pair serves correct logits again, store-fed from the
	// fresh generation-1 pair (budget stamped, not -1; no fallbacks).
	x := q()
	logits, err := rt.Submit("m", x)
	if err != nil {
		t.Fatalf("post-revival query: %v", err)
	}
	if d := maxAbsDiff(logits, plain(x)); d > 0.05 {
		t.Fatalf("post-revival query diff %v", d)
	}
	st := rt.Status()[0]
	if st.Budget <= 0 {
		t.Fatalf("revived shard must serve from a fresh store (budget stamped), got %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("revived shard fell back to the live dealer %d time(s) — the fresh store pair was not found", st.Fallbacks)
	}
	// The fresh pair lives under the generation directory with both
	// parties' files, and its label differs from the original run's.
	genDir := GenStoreDir(spec.Shards[0], 1)
	shape := []int{1, 2, 8, 8}
	for party := 0; party < 2; party++ {
		path := filepath.Join(genDir, corr.FileName(party, shape))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("revival store file: %v", err)
		}
	}
	orig, err := corr.ReadFile(filepath.Join(spec.Shards[0].StoreDir, corr.FileName(0, shape)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := corr.ReadFile(filepath.Join(genDir, corr.FileName(0, shape)))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Label() == fresh.Label() {
		t.Fatal("revived store pair must carry a fresh stream label, or dead and revived streams could be mixed silently")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// The original pair's vendor side died on the exhausted store —
	// symmetrically, as the store-error contract requires.
	if err := lb.Wait(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("vendor side must surface the exhaustion, got: %v", err)
	}
}

// TestShardClaimLifecycle pins the one claim rule every generation
// change rests on: each generation of a (model, shard) is claimed at most
// once, and only if strictly newer than every earlier claim — so no
// one-time correlation stream ever runs twice — while a newer generation
// supersedes whatever link still serves the pair.
func TestShardClaimLifecycle(t *testing.T) {
	m, input := testModel("m", 2, 8, 3, 101)
	reg := NewRegistry()
	if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 7, "")}); err != nil {
		t.Fatal(err)
	}
	// One registry, claims in order: each row sees every earlier claim.
	for _, c := range []struct {
		what   string
		gen    int
		reject bool
	}{
		{"gen 0, the original dial", 0, false},
		{"gen 0 again", 0, true},
		{"gen 1 while gen 0 still serves", 1, false},
		{"gen 1 again", 1, true},
		{"gen 0 after gen 1", 0, true},
		{"gen 3, skipping a burned gen 2", 3, false},
		{"gen 2 after gen 3", 2, true},
		{"gen 4", 4, false},
	} {
		err := reg.claimShard("m", 0, c.gen)
		if !c.reject && err != nil {
			t.Fatalf("%s must be claimable: %v", c.what, err)
		}
		if c.reject && (err == nil || !strings.Contains(err.Error(), "strictly newer")) {
			t.Fatalf("%s must be rejected as not strictly newer, got: %v", c.what, err)
		}
	}
}

// TestHelloRejectsThirdElement pins the hello wire format: [shard] or
// [shard, gen] only. A longer hello is refused with a descriptive ack
// before any weight sharing, and claims nothing.
func TestHelloRejectsThirdElement(t *testing.T) {
	m, input := testModel("m", 2, 8, 3, 101)
	reg := NewRegistry()
	if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 7, "")}); err != nil {
		t.Fatal(err)
	}
	c0, c1 := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeShardConn(c0, reg) }()
	if err := c1.SendModelShape("m", []int{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	ack, err := c1.RecvBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ack), "[shard] or [shard, generation]") {
		t.Fatalf("3-element hello ack %q must name the accepted formats", ack)
	}
	// The vendor ended the link after its ack: no weight sharing follows.
	if _, err := c1.RecvUint64s(); err == nil {
		t.Fatal("a rejected hello must not be followed by session setup")
	}
	c1.Close()
	if err := <-done; err == nil {
		t.Fatal("a rejected hello must error vendor-side")
	}
	if err := reg.claimShard("m", 0, 1); err != nil {
		t.Fatalf("a rejected hello must claim nothing: %v", err)
	}
}

// TestRouterSubmitVsCloseRace pins graceful shutdown under fire: with
// concurrent submitters, Close drains what it accepted and rejects the
// rest descriptively — no hang, no lost reply, no panic. Runs under
// -race in CI.
func TestRouterSubmitVsCloseRace(t *testing.T) {
	reg := buildTwoModelRegistry(t, "")
	lb := NewLoopback(reg)
	rt, err := NewRouter(reg, RouterOptions{Batch: 2, Policy: sched.QueueAware, Pipeline: true, Dial: lb.Dial})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := reg.Models()[g%2]
			spec, _ := reg.Lookup(id)
			r := rng.New(uint64(g))
			for q := 0; q < 4; q++ {
				x := tensor.New(1, spec.Input[0], spec.Input[1], spec.Input[2]).RandNorm(r, 0.5)
				logits, err := rt.Submit(id, x)
				switch {
				case err == nil:
					plain := spec.Model.Net.Forward(x, false).Data
					if d := maxAbsDiff(logits, plain); d > 0.05 {
						t.Errorf("%s: routed vs plaintext diff %v", id, d)
						return
					}
				case errors.Is(err, sched.ErrDispatcherClosed):
					return
				default:
					t.Errorf("submit vs close: unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}
}
