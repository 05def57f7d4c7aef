package gateway

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
)

// TestFixedMaskRoutingEquivalence pins that a shard pair's one F = W−b,
// sent at setup, serves every batch geometry the router packs, live and
// store-fed: a single-shard model flushed at N=2, N=1 and N=2 through the
// router is bit-identical, row for row, to a direct session pair run of
// the same flush sequence and matches plaintext, and the store-fed shard
// shows it served every geometry from its stores.
func TestFixedMaskRoutingEquivalence(t *testing.T) {
	const bound = 0.05
	for _, storeFed := range []bool{false, true} {
		name := "live"
		if storeFed {
			name = "store-fed"
		}
		t.Run(name, func(t *testing.T) {
			storeRoot := ""
			if storeFed {
				storeRoot = t.TempDir()
			}
			m, input := testModel("m", 2, 8, 3, 101)
			reg := NewRegistry()
			if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 77, storeRoot)}); err != nil {
				t.Fatal(err)
			}
			if storeFed {
				// Both geometries, each covering the routed run plus the
				// direct re-run off a fresh provider.
				if _, err := WriteShardStores(reg, []int{1, 2}, 4); err != nil {
					t.Fatal(err)
				}
			}
			lb := NewLoopback(reg)
			// Batch 2 with a window: two queries submitted back to back fill
			// one N=2 flush in submission order; a lone query flushes N=1
			// when the window closes.
			rt, err := NewRouter(reg, RouterOptions{Batch: 2, Window: 200 * time.Millisecond, Dial: lb.Dial})
			if err != nil {
				t.Fatal(err)
			}
			spec, _ := reg.Lookup("m")
			r := rng.New(906)
			var flushes [][]*tensor.Tensor
			var routed [][][]float64
			for f, n := range []int{2, 1, 2} {
				var batch []*tensor.Tensor
				var waits []func() ([]float64, error)
				for i := 0; i < n; i++ {
					x := tensor.New(1, input[0], input[1], input[2]).RandNorm(r, 0.5)
					batch = append(batch, x)
					waits = append(waits, rt.SubmitAsync("m", x))
				}
				var rows [][]float64
				for i, wait := range waits {
					logits, err := wait()
					if err != nil {
						t.Fatalf("flush %d query %d: %v", f, i, err)
					}
					if d := pi.MaxAbsErr(logits, spec.Model.Net.Forward(batch[i], false).Data); d > bound {
						t.Fatalf("flush %d query %d: routed vs plaintext diff %v", f, i, d)
					}
					rows = append(rows, logits)
				}
				flushes = append(flushes, batch)
				routed = append(routed, rows)
			}
			st := rt.Status()[0]
			if st.Down != "" || st.Queries != 5 || st.Flushes != 3 {
				t.Fatalf("shard status %+v, want 5 queries / 3 flushes, up", st)
			}
			if storeFed && (st.Budget <= 0 || st.Fallbacks != 0) {
				t.Fatalf("store-fed shard: budget %d, %d dealer fallbacks; want a positive stamp and none", st.Budget, st.Fallbacks)
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if err := lb.Wait(); err != nil {
				t.Fatalf("vendor side: %v", err)
			}
			var packed []*tensor.Tensor
			for _, batch := range flushes {
				x, _, err := pi.PackQueries(batch)
				if err != nil {
					t.Fatal(err)
				}
				packed = append(packed, x)
			}
			direct := directShardRun(t, spec, spec.Shards[0], packed)
			for f, rows := range routed {
				var want []float64
				for _, row := range rows {
					want = append(want, row...)
				}
				if len(direct[f]) != len(want) {
					t.Fatalf("flush %d: direct run returned %d logits, routed %d", f, len(direct[f]), len(want))
				}
				for i := range want {
					if direct[f][i] != want[i] {
						t.Fatalf("flush %d (N=%d): routed logit %d diverged from the direct run: %v vs %v",
							f, len(rows), i, want[i], direct[f][i])
					}
				}
			}
		})
	}
}

// TestFixedMaskRevivalMintsFreshMasks is the mask-lifetime property at the
// gateway level: when a shard exhausts its store and the lifecycle revives
// it at generation 1, the revived pair re-opens W−b against the fresh
// generation's masks (ReviveSeed) and serves store-fed from a freshly
// provisioned store — the generation-0 mask material never outlives its
// dealer stream, so the session-lifetime mask cache never leaks across the
// lifecycle layer.
func TestFixedMaskRevivalMintsFreshMasks(t *testing.T) {
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
	for i := 0; i < 2; i++ {
		x := q()
		logits, err := rt.Submit("m", x)
		if err != nil {
			t.Fatalf("budgeted query %d: %v", i, err)
		}
		if d := pi.MaxAbsErr(logits, spec.Model.Net.Forward(x, false).Data); d > 0.05 {
			t.Fatalf("budgeted query %d diff %v", i, d)
		}
	}
	// The third query exhausts the store and kills the only pair; the
	// lifecycle then revives it at generation 1 in the background.
	if _, err := rt.Submit("m", q()); err == nil {
		t.Fatal("query past the budget must fail all-down")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rt.Status()[0]
		if st.Down == "" && st.Gen == 1 && st.Revived == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fixed-mask shard never revived: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The revived pair serves correct fixed-mask logits off the fresh
	// generation-1 store: budget stamped, no dealer fallback — both
	// parties opened the SAME fresh F = W−b, or the combine would have
	// produced garbage logits here.
	x := q()
	logits, err := rt.Submit("m", x)
	if err != nil {
		t.Fatalf("post-revival query: %v", err)
	}
	if d := pi.MaxAbsErr(logits, spec.Model.Net.Forward(x, false).Data); d > 0.05 {
		t.Fatalf("post-revival fixed-mask query diff %v", d)
	}
	st := rt.Status()[0]
	if st.Budget <= 0 {
		t.Fatalf("revived fixed-mask shard must serve from a fresh store (budget stamped), got %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("revived fixed-mask shard took %d dealer fallbacks", st.Fallbacks)
	}
	// The fresh pair's store carries a new stream label: generation-1
	// (a, a@b) products were built against generation-1 masks, never the
	// dead stream's.
	shape := []int{1, 2, 8, 8}
	orig, err := corr.ReadFile(filepath.Join(spec.Shards[0].StoreDir, corr.FileName(0, shape)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := corr.ReadFile(filepath.Join(GenStoreDir(spec.Shards[0], 1), corr.FileName(0, shape)))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Label() == fresh.Label() {
		t.Fatal("revived fixed-mask store must carry a fresh stream label")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// The original pair's vendor side died on the exhausted fixed store,
	// naming the fixed correlation kind.
	if err := lb.Wait(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("vendor side must surface the exhaustion, got: %v", err)
	}
}
