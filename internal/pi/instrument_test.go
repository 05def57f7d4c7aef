package pi

import (
	"math"
	"sync"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// TestSessionInstrumentSpansAndFeed drives an instrumented session pair
// and checks the observability contract: every flush lands exactly one
// observation in each lifecycle-phase histogram, every flush traces its
// operators into the per-op feed, and — replaying the same seeded flush
// sequence on a plain pair — instrumentation does not perturb a single
// logit bit.
func TestSessionInstrumentSpansAndFeed(t *testing.T) {
	m, inC, hw := tinyModel(31)
	const flushes = 4

	// runFlushes stands up a fresh session pair on fixed seeds and drives
	// the fixed query sequence through it: fully instrumented (wire
	// counters, flush spans, op feed) when reg is non-nil, plain otherwise.
	runFlushes := func(reg *obs.Registry) [][]float64 {
		t.Helper()
		c0, c1 := transport.Pipe()
		defer c0.Close()
		defer c1.Close()
		codec := fixed.Default64()
		p0 := mpc.NewParty(0, c0, 7, 71, codec)
		var conn transport.Conn = c1
		if reg != nil {
			conn = obs.InstrumentConn(c1, reg, "model", "tiny", "shard", "0")
		}
		p1 := mpc.NewParty(1, conn, 7, 72, codec)

		var serveErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := NewSession(p0, m, []int{0, inC, hw, hw})
			if err != nil {
				serveErr = err
				return
			}
			serveErr = sess.Serve()
		}()

		sess, err := NewSession(p1, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reg != nil {
			sess.Instrument(reg, "model", "tiny", "shard", "0")
		}

		r := rng.New(11)
		var logits [][]float64
		var samplesAfterFirst int64
		for f := 0; f < flushes; f++ {
			x := tensor.New(1, inC, hw, hw).RandNorm(r, 0.5)
			out, err := sess.Query(x)
			if err != nil {
				t.Fatalf("flush %d: %v", f, err)
			}
			logits = append(logits, out)
			if reg == nil {
				continue
			}
			// Every flush traces the same program, so the sample count
			// grows by the same amount each time.
			got := reg.OpFeed().Samples()
			if f == 0 {
				samplesAfterFirst = got
			}
			if samplesAfterFirst == 0 || got != int64(f+1)*samplesAfterFirst {
				t.Fatalf("feed holds %d samples after flush %d, want %d×%d", got, f, f+1, samplesAfterFirst)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if serveErr != nil {
			t.Fatalf("serve loop: %v", serveErr)
		}
		return logits
	}

	reg := obs.New()
	instrumented := runFlushes(reg)
	plain := runFlushes(nil)
	for f := range plain {
		if len(instrumented[f]) != len(plain[f]) || len(plain[f]) == 0 {
			t.Fatalf("flush %d: %d instrumented logits vs %d plain", f, len(instrumented[f]), len(plain[f]))
		}
		for i, want := range plain[f] {
			if got := instrumented[f][i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("flush %d logit %d: instrumented %x differs from plain %x", f, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	spans := reg.FlushSpans("model", "tiny", "shard", "0")
	phases := map[string]*obs.Histogram{
		"ingest":      spans.Ingest,
		"evaluate":    spans.Evaluate,
		"reveal_send": spans.RevealSend,
		"reveal_recv": spans.RevealRecv,
		"decode":      spans.Decode,
	}
	for phase, h := range phases {
		if got := h.Count(); got != flushes {
			t.Fatalf("phase %s observed %d flushes, want %d", phase, got, flushes)
		}
		if s := h.Snapshot(); s.Sum < 0 {
			t.Fatalf("phase %s accumulated negative time %v", phase, s.Sum)
		}
	}

	feed := reg.OpFeed()
	if feed.Keys() == 0 {
		t.Fatal("op feed saw no operator keys")
	}
	// A serving session's feed must fold into a usable latency table.
	lut, err := feed.HarvestLUT(hwmodel.DefaultConfig(), "harvested/pi-test")
	if err != nil {
		t.Fatalf("harvest from instrumented session: %v", err)
	}
	if len(lut.Entries) != feed.Keys() {
		t.Fatalf("harvested %d LUT entries from %d feed keys", len(lut.Entries), feed.Keys())
	}
}
