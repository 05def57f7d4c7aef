package gateway

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"pasnet/internal/hwmodel"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// TestRouterObsUnderConcurrentLoad is the observability deployment shape
// under race pressure: concurrent submitters for two models drive an
// instrumented router while readers hammer the registry's snapshot and
// Prometheus export the whole time. Afterwards the registry must hold a
// consistent account — wire bytes and rounds per lane, one flush-phase
// observation per flush, scheduler counters agreeing with the submit
// count — and the live op feed must harvest into a usable LUT.
func TestRouterObsUnderConcurrentLoad(t *testing.T) {
	reg := buildTwoModelRegistry(t, "")
	lb := NewLoopback(reg)
	oreg := obs.New()
	rt, err := NewRouter(reg, RouterOptions{
		Batch: 1, Dial: lb.Dial, Obs: oreg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Export readers run for the whole serving window.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := oreg.Snapshot()
				_ = len(snap.Counters) + len(snap.Histograms)
				_ = oreg.WriteProm(io.Discard)
				_ = oreg.OpFeed().Samples()
			}
		}()
	}

	const perModel = 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*perModel)
	for _, id := range reg.Models() {
		spec, _ := reg.Lookup(id)
		r := rng.New(500 + uint64(len(id)))
		for q := 0; q < perModel; q++ {
			x := tensor.New(1, spec.Input[0], spec.Input[1], spec.Input[2]).RandNorm(r, 0.5)
			wg.Add(1)
			go func(id string, x *tensor.Tensor) {
				defer wg.Done()
				if _, err := rt.Submit(id, x); err != nil {
					errs <- err
				}
			}(id, x)
		}
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	wireKinds := []string{"u32", "u64", "bytes", "shape", "model", "err"}
	for _, id := range reg.Models() {
		var sentBytes, recvBytes, rounds, flushPhase, schedQueries, schedFlushes int64
		for s := 0; s < 2; s++ {
			lbl := []string{"model", id, "shard", strconv.Itoa(s)}
			for _, k := range wireKinds {
				kl := append(append([]string(nil), lbl...), "kind", k)
				sentBytes += oreg.Counter("pasnet_wire_sent_bytes_total", kl...).Load()
				recvBytes += oreg.Counter("pasnet_wire_recv_bytes_total", kl...).Load()
			}
			rounds += oreg.Counter("pasnet_wire_rounds_total", lbl...).Load()
			flushPhase += oreg.FlushSpans(lbl...).Evaluate.Count()
			schedQueries += oreg.Counter("pasnet_sched_queries_total", lbl...).Load()
			schedFlushes += oreg.Counter("pasnet_sched_flushes_total", lbl...).Load()
		}
		if sentBytes == 0 || recvBytes == 0 {
			t.Fatalf("%s: wire accounting empty (sent %d, recv %d)", id, sentBytes, recvBytes)
		}
		if rounds == 0 {
			t.Fatalf("%s: no protocol rounds counted", id)
		}
		if schedQueries != perModel {
			t.Fatalf("%s: sched counted %d queries, want %d", id, schedQueries, perModel)
		}
		// Batch=1: every query is its own flush, and each flush lands one
		// observation in each phase histogram.
		if schedFlushes != perModel || flushPhase != perModel {
			t.Fatalf("%s: %d sched flushes / %d evaluate-phase observations, want %d of each",
				id, schedFlushes, flushPhase, perModel)
		}
	}

	// The serving router's sampled feed harvests into a latency table the
	// NAS loop can consume — live recalibration without a probe transport.
	lut, err := rt.HarvestLUT(hwmodel.DefaultConfig(), "harvested/gateway-test")
	if err != nil {
		t.Fatal(err)
	}
	if lut.Source != "harvested/gateway-test" || len(lut.Entries) == 0 {
		t.Fatalf("harvested LUT source %q with %d entries", lut.Source, len(lut.Entries))
	}
	// The PASLUT1 encoder validates entries; a harvest that fails it
	// could never reach a search.
	if _, err := lut.EncodeJSON(nil); err != nil {
		t.Fatalf("harvested LUT fails the artifact validator: %v", err)
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}
}
