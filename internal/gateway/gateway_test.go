package gateway

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nn"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// This file is the routing-equivalence suite the multi-model gateway rests
// on:
//
//   - routed inference over ≥2 registered models reproduces a direct
//     single-pair run of the same shard provisioning bit-for-bit, on both
//     the live-dealer and the store-fed path, and matches plaintext within
//     the fixed-point bound — routing adds nothing to the protocol;
//   - concurrent queries for different models land on distinct session
//     pairs and all come back correct;
//   - a shard whose preprocessed store runs dry is marked down and its
//     queries fail over to the model's remaining healthy shards; only when
//     every shard is down does a query fail, with a descriptive error.

// testModel hand-builds a small trained-enough network (BN statistics
// warmed by a few forward passes) so gateway tests never pay backbone
// training time. Channel/class counts differ per variant so cross-model
// demux mistakes cannot cancel out.
func testModel(name string, inC, hw, classes int, seed uint64) (*models.Model, []int) {
	r := rng.New(seed)
	net := nn.NewNetwork(nn.NewSequential(
		nn.NewConv2D("c1", tensor.ConvSpec{InC: inC, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, false, r),
		nn.NewBatchNorm2D("bn1", 4),
		nn.NewX2Act("a1", hw*hw*4),
		nn.NewConv2D("c2", tensor.ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, false, r),
		nn.NewBatchNorm2D("bn2", 4),
		nn.NewX2Act("a2", hw*hw*4),
		nn.NewGlobalAvgPool(),
		nn.NewFlatten(),
		nn.NewLinear("fc", 4, classes, r),
	))
	for i := 0; i < 4; i++ {
		net.Forward(tensor.New(8, inC, hw, hw).RandNorm(r, 0.5), true)
	}
	return &models.Model{Name: name, Net: net}, []int{inC, hw, hw}
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// directShardRun reproduces one shard pair outside the gateway: a fresh
// session pair over a pipe, constructed exactly as the router and vendor
// construct theirs (same dealer seed, same private seeds, same store
// provisioning), evaluating the given flush sequence. The gateway's routed
// results must be bit-identical to this — routing must add nothing.
func directShardRun(t *testing.T, spec *ModelSpec, desc ShardDesc, queries []*tensor.Tensor) [][]float64 {
	t.Helper()
	c0, c1 := transport.Pipe()
	codec := fixed.Default64()
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, c0, desc.Seed, shardPrivSeed(desc.Seed, 0), codec)
		sess, err := pi.NewSessionOpts(p0, spec.Model, append([]int{0}, spec.Input...), pi.SessionOptions{})
		if err != nil {
			serveErr = err
			return
		}
		if desc.StoreDir != "" {
			sess.UsePreprocessed(pi.NewDirProvider(desc.StoreDir))
		}
		serveErr = sess.Serve()
	}()
	p1 := mpc.NewParty(1, c1, desc.Seed, shardPrivSeed(desc.Seed, 1), codec)
	sess, err := pi.NewSessionOpts(p1, spec.Model, nil, pi.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if desc.StoreDir != "" {
		sess.UsePreprocessed(pi.NewDirProvider(desc.StoreDir))
	}
	out := make([][]float64, len(queries))
	for i, q := range queries {
		if out[i], err = sess.Query(q); err != nil {
			t.Fatalf("direct shard run flush %d: %v", i, err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("direct shard run serve side: %v", serveErr)
	}
	return out
}

// buildTwoModelRegistry registers two distinct models with two shards
// each. storeRoot "" keeps every shard on the live dealer.
func buildTwoModelRegistry(t *testing.T, storeRoot string) *Registry {
	t.Helper()
	reg := NewRegistry()
	mA, inA := testModel("modelA", 2, 8, 3, 101)
	mB, inB := testModel("modelB", 3, 6, 5, 202)
	for _, spec := range []*ModelSpec{
		{ID: "modelA", Model: mA, Input: inA, Shards: Shards("modelA", 2, 77, storeRoot)},
		{ID: "modelB", Model: mB, Input: inB, Shards: Shards("modelB", 2, 77, storeRoot)},
	} {
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestRoutingEquivalence is the headline property: sequential routed
// queries over two registered models, on the live-dealer and the store-fed
// path, are bit-identical to direct single-pair runs of the same shard
// provisioning and match plaintext within the fixed-point bound.
func TestRoutingEquivalence(t *testing.T) {
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
			reg := buildTwoModelRegistry(t, storeRoot)
			if storeFed {
				// Budget covers the routed run plus the direct re-run of
				// each shard's flush sequence off a fresh provider.
				if _, err := WriteShardStores(reg, []int{1}, 4); err != nil {
					t.Fatal(err)
				}
			}
			lb := NewLoopback(reg)
			// Batch=1 with sequential submission makes the round-robin
			// shard assignment deterministic: query i of a model lands on
			// shard i%2, so each shard's flush sequence is reproducible.
			rt, err := NewRouter(reg, RouterOptions{Batch: 1, Dial: lb.Dial})
			if err != nil {
				t.Fatal(err)
			}
			const perModel = 4
			queries := map[string][]*tensor.Tensor{}
			routed := map[string][][]float64{}
			for _, id := range reg.Models() {
				spec, _ := reg.Lookup(id)
				r := rng.New(900 + uint64(len(id)))
				for q := 0; q < perModel; q++ {
					x := tensor.New(1, spec.Input[0], spec.Input[1], spec.Input[2]).RandNorm(r, 0.5)
					queries[id] = append(queries[id], x)
					logits, err := rt.Submit(id, x)
					if err != nil {
						t.Fatalf("%s query %d: %v", id, q, err)
					}
					routed[id] = append(routed[id], logits)
				}
			}
			for _, st := range rt.Status() {
				if st.Down != "" || st.Queries != 2 || st.Flushes != 2 {
					t.Fatalf("shard status %+v, want 2 queries / 2 flushes, up", st)
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if err := lb.Wait(); err != nil {
				t.Fatalf("vendor side: %v", err)
			}

			for _, id := range reg.Models() {
				spec, _ := reg.Lookup(id)
				// Plaintext within the fixed-point bound, and the output
				// width demuxes per the model's own class count — queries
				// for different models never crossed pairs.
				for q, x := range queries[id] {
					plain := spec.Model.Net.Forward(x, false).Data
					if len(routed[id][q]) != len(plain) {
						t.Fatalf("%s query %d: %d logits, want %d", id, q, len(routed[id][q]), len(plain))
					}
					if d := maxAbsDiff(routed[id][q], plain); d > bound {
						t.Fatalf("%s query %d: routed vs plaintext diff %v", id, q, d)
					}
				}
				// Bit-identical to a direct single-pair run per shard:
				// shard s served the subsequence q ≡ s (mod 2), in order.
				for s := 0; s < 2; s++ {
					var sub []*tensor.Tensor
					var want [][]float64
					for q := s; q < perModel; q += 2 {
						sub = append(sub, queries[id][q])
						want = append(want, routed[id][q])
					}
					direct := directShardRun(t, spec, spec.Shards[s], sub)
					for f := range direct {
						for i := range direct[f] {
							if direct[f][i] != want[f][i] {
								t.Fatalf("%s shard %d flush %d: routed logit %d diverged from direct single-pair run: %v vs %v",
									id, s, f, i, want[f][i], direct[f][i])
							}
						}
					}
				}
				// And within the cross-path tolerance of the high-level
				// RunBatch API (different sharing randomness, same model).
				batch, err := pi.RunBatch(spec.Model, hwmodel.DefaultConfig(), queries[id], 55)
				if err != nil {
					t.Fatal(err)
				}
				for q := range queries[id] {
					if d := maxAbsDiff(routed[id][q], batch.PerQuery[q]); d > 2*bound {
						t.Fatalf("%s query %d: routed vs RunBatch diff %v", id, q, d)
					}
				}
			}
		})
	}
}

// TestConcurrentMultiModelRouting drives both models from concurrent
// submitters — the deployment shape — and checks every reply against
// plaintext plus the per-shard accounting.
func TestConcurrentMultiModelRouting(t *testing.T) {
	reg := buildTwoModelRegistry(t, "")
	lb := NewLoopback(reg)
	// A positive window is the deployment shape: without it a trailing
	// partial batch would wait for the count threshold forever.
	rt, err := NewRouter(reg, RouterOptions{Batch: 2, Window: 5 * time.Millisecond, Dial: lb.Dial})
	if err != nil {
		t.Fatal(err)
	}
	const perModel = 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*perModel)
	for _, id := range reg.Models() {
		spec, _ := reg.Lookup(id)
		r := rng.New(300 + uint64(len(id)))
		for q := 0; q < perModel; q++ {
			x := tensor.New(1, spec.Input[0], spec.Input[1], spec.Input[2]).RandNorm(r, 0.5)
			wg.Add(1)
			go func(id string, x *tensor.Tensor) {
				defer wg.Done()
				logits, err := rt.Submit(id, x)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				plain := spec.Model.Net.Forward(x, false).Data
				if d := maxAbsDiff(logits, plain); d > 0.05 {
					errs <- fmt.Errorf("%s: routed vs plaintext diff %v", id, d)
				}
			}(id, x)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	perModelQueries := map[string]int64{}
	for _, st := range rt.Status() {
		if st.Down != "" {
			t.Fatalf("shard %+v down", st)
		}
		perModelQueries[st.Model] += st.Queries
	}
	for id, n := range perModelQueries {
		if n != perModel {
			t.Fatalf("model %s routed %d queries, want %d", id, n, perModel)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}
}

// TestShardExhaustionFallback pins the failover path: a store-backed shard
// whose preprocessed budget runs dry is marked down with the exhaustion
// error and its queries transparently re-route to the model's remaining
// healthy shard; with every shard down, a query fails descriptively.
func TestShardExhaustionFallback(t *testing.T) {
	storeRoot := t.TempDir()
	m, input := testModel("modelA", 2, 8, 3, 101)
	shards := Shards("modelA", 2, 77, storeRoot)
	shards[1].StoreDir = "" // shard 1 stays on the live dealer
	reg := NewRegistry()
	if err := reg.Register(&ModelSpec{ID: "modelA", Model: m, Input: input, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	// Shard 0's store covers exactly one flush of the N=1 geometry.
	if _, err := WriteShardStores(reg, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(reg)
	rt, err := NewRouter(reg, RouterOptions{Batch: 1, Dial: lb.Dial})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := reg.Lookup("modelA")
	r := rng.New(11)
	plainOf := func(x *tensor.Tensor) []float64 { return spec.Model.Net.Forward(x, false).Data }
	// Queries 0 and 1 round-robin onto shards 0 and 1; query 0 consumes
	// shard 0's whole store budget.
	for q := 0; q < 2; q++ {
		x := tensor.New(1, 2, 8, 8).RandNorm(r, 0.5)
		logits, err := rt.Submit("modelA", x)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if d := maxAbsDiff(logits, plainOf(x)); d > 0.05 {
			t.Fatalf("query %d diff %v", q, d)
		}
	}
	// Query 2 lands on shard 0 again, hits store exhaustion, and must fail
	// over to the live shard 1 — the client still gets its logits.
	x := tensor.New(1, 2, 8, 8).RandNorm(r, 0.5)
	logits, err := rt.Submit("modelA", x)
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if d := maxAbsDiff(logits, plainOf(x)); d > 0.05 {
		t.Fatalf("failover query diff %v", d)
	}
	var down0 string
	var shard1Queries int64
	for _, st := range rt.Status() {
		switch st.Shard {
		case 0:
			down0 = st.Down
		case 1:
			shard1Queries = st.Queries
		}
	}
	if !strings.Contains(down0, "exhausted") {
		t.Fatalf("shard 0 must be down with the exhaustion error, got %q", down0)
	}
	if shard1Queries != 2 {
		t.Fatalf("shard 1 served %d queries, want 2 (its own + the failover)", shard1Queries)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// The vendor side of shard 0 saw the same exhaustion — symmetric, as
	// the store-error contract requires.
	if err := lb.Wait(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("vendor side must surface the exhaustion symmetrically, got: %v", err)
	}

	// All-shards-down: a single-shard model whose only store runs dry.
	soloRoot := t.TempDir()
	mSolo, inSolo := testModel("solo", 2, 8, 3, 303)
	regSolo := NewRegistry()
	if err := regSolo.Register(&ModelSpec{ID: "solo", Model: mSolo, Input: inSolo, Shards: Shards("solo", 1, 78, soloRoot)}); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteShardStores(regSolo, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	lbSolo := NewLoopback(regSolo)
	rtSolo, err := NewRouter(regSolo, RouterOptions{Batch: 1, Dial: lbSolo.Dial})
	if err != nil {
		t.Fatal(err)
	}
	q := tensor.New(1, 2, 8, 8).RandNorm(r, 0.5)
	if _, err := rtSolo.Submit("solo", q); err != nil {
		t.Fatalf("budgeted query: %v", err)
	}
	_, err = rtSolo.Submit("solo", q)
	if err == nil || !strings.Contains(err.Error(), "all 1 shard(s)") {
		t.Fatalf("exhausting the only shard must fail descriptively, got: %v", err)
	}
	if err := rtSolo.Close(); err != nil {
		t.Fatal(err)
	}
	_ = lbSolo.Wait() // vendor-side exhaustion already asserted above
}

// TestQueryValidationBeforeRouting pins that malformed queries are
// rejected before touching any shard: wrong model, wrong geometry, and
// over-cap row counts never reach a batcher.
func TestQueryValidationBeforeRouting(t *testing.T) {
	reg := buildTwoModelRegistry(t, "")
	lb := NewLoopback(reg)
	rt, err := NewRouter(reg, RouterOptions{Batch: 1, Dial: lb.Dial})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("nope", tensor.New(1, 2, 8, 8)); err == nil || !strings.Contains(err.Error(), "no model") {
		t.Fatalf("unknown model must fail descriptively, got: %v", err)
	}
	// modelB's geometry submitted to modelA.
	if _, err := rt.Submit("modelA", tensor.New(1, 3, 6, 6)); err == nil || !strings.Contains(err.Error(), "does not match model") {
		t.Fatalf("wrong geometry must fail descriptively, got: %v", err)
	}
	if _, err := rt.Submit("modelA", tensor.New(DefaultRowCap+1, 2, 8, 8)); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("over-cap rows must fail descriptively, got: %v", err)
	}
	for _, st := range rt.Status() {
		if st.Queries != 0 {
			t.Fatalf("rejected queries must not reach shards: %+v", st)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}
}

// TestDuplicateShardClaimRejected pins the vendor-side claim check: a
// second link claiming an already-served (model, shard) would run a
// second protocol execution off the identical dealer stream, so the hello
// must be rejected before any weight sharing.
func TestDuplicateShardClaimRejected(t *testing.T) {
	m, input := testModel("m", 2, 8, 3, 101)
	reg := NewRegistry()
	if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 7, "")}); err != nil {
		t.Fatal(err)
	}
	claim := func() (string, error) {
		c0, c1 := transport.Pipe()
		errc := make(chan error, 1)
		go func() { errc <- ServeShardConn(c0, reg) }()
		if err := c1.SendModelShape("m", []int{0}); err != nil {
			t.Fatal(err)
		}
		ack, err := c1.RecvBytes()
		if err != nil {
			t.Fatal(err)
		}
		// Abandon the link after the hello; the vendor goroutine exits on
		// the torn session setup (first claim) or the rejection (second).
		c1.Close()
		return string(ack), <-errc
	}
	if ack, _ := claim(); ack != "" {
		t.Fatalf("first claim must be accepted, got rejection %q", ack)
	}
	ack, err := claim()
	if !strings.Contains(ack, "already served") {
		t.Fatalf("second claim must be rejected over the wire, got %q", ack)
	}
	if err == nil || !strings.Contains(err.Error(), "already served") {
		t.Fatalf("second claim must error vendor-side, got: %v", err)
	}
}

// TestRegistryAndProvisioning covers registration validation and the
// per-shard store layout: every (shard, geometry) pair gets both parties'
// files, stamped with per-shard run labels so shards can never silently
// swap stores.
func TestRegistryAndProvisioning(t *testing.T) {
	m, input := testModel("m", 2, 8, 3, 101)
	reg := NewRegistry()
	bad := []*ModelSpec{
		{ID: "", Model: m, Input: input, Shards: Shards("", 1, 1, "")},
		{ID: strings.Repeat("x", MaxModelID+1), Model: m, Input: input, Shards: Shards("x", 1, 1, "")},
		{ID: "nonet", Model: &models.Model{Name: "nonet"}, Input: input, Shards: Shards("nonet", 1, 1, "")},
		{ID: "badgeom", Model: m, Input: []int{2, 8}, Shards: Shards("badgeom", 1, 1, "")},
		{ID: "noshards", Model: m, Input: input},
		{ID: "dupseed", Model: m, Input: input, Shards: []ShardDesc{{Seed: 5}, {Seed: 5}}},
	}
	for _, spec := range bad {
		if err := reg.Register(spec); err == nil {
			t.Fatalf("spec %q must fail registration", spec.ID)
		}
	}
	root := t.TempDir()
	spec := &ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 2, 9, root)}
	if err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(spec); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	// Seed uniqueness is registry-wide: a different model reusing one of
	// m's shard seeds would share that pair's correlation stream.
	crossDup := &ModelSpec{ID: "m2", Model: m, Input: input, Shards: []ShardDesc{{Seed: spec.Shards[1].Seed}}}
	if err := reg.Register(crossDup); err == nil || !strings.Contains(err.Error(), "m/1") {
		t.Fatalf("cross-model duplicate seed must fail naming the owner, got: %v", err)
	}
	if got := reg.TotalShards(); got != 2 {
		t.Fatalf("TotalShards %d, want 2", got)
	}
	if spec.Shards[0].Seed == spec.Shards[1].Seed {
		t.Fatal("derived shard seeds must differ")
	}
	if ShardSeed(9, "m", 0) == ShardSeed(9, "n", 0) {
		t.Fatal("shard seeds must differ across models")
	}

	batches := []int{1, 2}
	paths, err := WriteShardStores(reg, batches, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 2 shards × 2 geometries × 2 parties.
	if len(paths) != 8 {
		t.Fatalf("wrote %d store files, want 8", len(paths))
	}
	labels := map[int]uint32{}
	for s := 0; s < 2; s++ {
		for _, k := range batches {
			for party := 0; party < 2; party++ {
				name := corr.FileName(party, append([]int{k}, input...))
				st, err := corr.ReadFile(ShardStoreDir(root, "m", s) + "/" + name)
				if err != nil {
					t.Fatalf("shard %d %s: %v", s, name, err)
				}
				if st.Party() != party {
					t.Fatalf("shard %d %s holds party %d material", s, name, st.Party())
				}
				if k == 1 && party == 0 {
					labels[s] = st.Label()
				}
			}
		}
	}
	if labels[0] == labels[1] {
		t.Fatal("per-shard store labels must differ, or shards could silently swap stores")
	}
}
