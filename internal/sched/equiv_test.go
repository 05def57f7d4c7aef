package sched

import (
	"fmt"
	"sync"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/kernel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nn"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// This file is the pipelined-vs-serialized equivalence suite: across the
// program zoo (plain stacks, ReLU/maxpool with residuals, projection
// shortcuts, nested residuals, depthwise convolutions), flush geometries
// N=1 and N=4, both sourcing paths (live dealer and preprocessed store)
// and multiple kernel worker counts, a PipelinedSession's flush sequence
// must reproduce the serialized Session.Query sequence bit-for-bit. This
// is the invariant that makes pipelining a pure scheduling change: the
// phase split reorders *when* reconstruction happens relative to the next
// flush's ingest, never what any protocol round computes.

// zooVariant mirrors the pi equivalence suite's network spread.
type zooVariant struct {
	name    string
	hw, inC int
	build   func(r *rng.RNG, hw, inC, classes int) *nn.Network
}

func zconv(name string, inC, outC, k, stride, pad int, r *rng.RNG) *nn.Conv2D {
	return nn.NewConv2D(name, tensor.ConvSpec{InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad}, false, r)
}

var zoo = []zooVariant{
	{
		name: "plain-x2-gap", hw: 8, inC: 2,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			return nn.NewNetwork(nn.NewSequential(
				zconv("c1", inC, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn1", 4),
				nn.NewX2Act("a1", hw*hw*4),
				zconv("c2", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn2", 4),
				nn.NewX2Act("a2", hw*hw*4),
				nn.NewGlobalAvgPool(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 4, classes, r),
			))
		},
	},
	{
		name: "relu-maxpool-residual", hw: 8, inC: 3,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			body := nn.NewSequential(
				zconv("rb1", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("rbn1", 4),
				nn.NewReLU(),
				zconv("rb2", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("rbn2", 4),
			)
			return nn.NewNetwork(nn.NewSequential(
				zconv("stem", inC, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("sbn", 4),
				nn.NewReLU(),
				nn.NewMaxPool(2, 2, 2),
				nn.NewResidual(body, nil, nil),
				nn.NewReLU(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 4*(hw/2)*(hw/2), classes, r),
			))
		},
	},
	{
		name: "x2-projection-shortcut", hw: 8, inC: 2,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			body := nn.NewSequential(
				zconv("pb1", 2, 6, 3, 2, 1, r),
				nn.NewBatchNorm2D("pbn1", 6),
				nn.NewX2Act("pa1", (hw/2)*(hw/2)*6),
				zconv("pb2", 6, 6, 3, 1, 1, r),
				nn.NewBatchNorm2D("pbn2", 6),
			)
			short := nn.NewSequential(
				zconv("ps", 2, 6, 1, 2, 0, r),
				nn.NewBatchNorm2D("psbn", 6),
			)
			return nn.NewNetwork(nn.NewSequential(
				nn.NewResidual(body, short, nil),
				nn.NewX2Act("pa2", (hw/2)*(hw/2)*6),
				nn.NewAvgPool(2, 2, 2),
				nn.NewFlatten(),
				nn.NewLinear("fc", 6*(hw/4)*(hw/4), classes, r),
			))
		},
	},
	{
		name: "nested-residual", hw: 8, inC: 2,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			inner := nn.NewResidual(nn.NewSequential(
				zconv("ni1", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("nibn", 4),
			), nil, nil)
			outerBody := nn.NewSequential(
				zconv("no1", 4, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("nobn", 4),
				nn.NewX2Act("noa", hw*hw*4),
				inner,
			)
			outerShort := nn.NewSequential(zconv("ns", 4, 4, 1, 1, 0, r))
			return nn.NewNetwork(nn.NewSequential(
				zconv("stem", inC, 4, 3, 1, 1, r),
				nn.NewBatchNorm2D("sbn", 4),
				nn.NewX2Act("sa", hw*hw*4),
				nn.NewResidual(outerBody, outerShort, nil),
				nn.NewGlobalAvgPool(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 4, classes, r),
			))
		},
	},
	{
		name: "depthwise-x2", hw: 12, inC: 3,
		build: func(r *rng.RNG, hw, inC, classes int) *nn.Network {
			return nn.NewNetwork(nn.NewSequential(
				zconv("c1", inC, 6, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn1", 6),
				nn.NewX2Act("a1", hw*hw*6),
				nn.NewDepthwiseConv2D("dw", 6, 3, 1, 1, r),
				nn.NewBatchNorm2D("bn2", 6),
				nn.NewX2Act("a2", hw*hw*6),
				nn.NewGlobalAvgPool(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 6, classes, r),
			))
		},
	},
}

// zooModel builds one warmed zoo network as a servable model.
func zooModel(v zooVariant, seed uint64) *models.Model {
	r := rng.New(seed)
	net := v.build(r, v.hw, v.inC, 3)
	for i := 0; i < 4; i++ {
		net.Forward(tensor.New(8, v.inC, v.hw, v.hw).RandNorm(r, 0.5), true)
	}
	return &models.Model{Name: v.name, Net: net}
}

// zooFlushes is the flush sequence every schedule runs: mixed N=1 and N=4
// geometries so the pipeline crosses batch shapes mid-stream.
func zooFlushes(v zooVariant, seed uint64) []*tensor.Tensor {
	r := rng.New(seed)
	return []*tensor.Tensor{
		tensor.New(1, v.inC, v.hw, v.hw).RandNorm(r, 0.5),
		tensor.New(4, v.inC, v.hw, v.hw).RandNorm(r, 0.5),
		tensor.New(1, v.inC, v.hw, v.hw).RandNorm(r, 0.5),
		tensor.New(4, v.inC, v.hw, v.hw).RandNorm(r, 0.5),
	}
}

const zooDealerSeed = 4242

// writeStores provisions both parties' store files for each geometry the
// way the gateway does: trace the per-flush tape, then WriteStorePair it.
func writeStores(prog *pi.Program, dealerSeed uint64, shapes [][]int, flushes int, dir string) ([]string, error) {
	var paths []string
	for _, shape := range shapes {
		tape, err := pi.TraceTapeMode(prog, shape, false)
		if err != nil {
			return nil, err
		}
		ps, err := pi.WriteStorePair(tape, dealerSeed, shape, flushes, dir)
		if err != nil {
			return nil, err
		}
		paths = append(paths, ps...)
	}
	return paths, nil
}

// runSchedule evaluates the flush sequence over a fresh session pair —
// serialized (Session.Query per flush) or pipelined (all flushes started
// before the first wait, so reconstruction genuinely overlaps the next
// ingest) — optionally store-fed from dir, and returns per-flush logits.
func runSchedule(t *testing.T, m *models.Model, flushes []*tensor.Tensor, pipelined bool, storeDir string) [][]float64 {
	t.Helper()
	c0, c1 := transport.Pipe()
	codec := fixed.Default64()
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, c0, zooDealerSeed, zooDealerSeed*31+1, codec)
		sess, err := pi.NewSessionOpts(p0, m, nil, pi.SessionOptions{})
		if err != nil {
			serveErr = err
			return
		}
		if storeDir != "" {
			sess.UsePreprocessed(pi.NewDirProvider(storeDir))
		}
		serveErr = sess.Serve()
	}()
	p1 := mpc.NewParty(1, c1, zooDealerSeed, zooDealerSeed*31+2, codec)
	sess, err := pi.NewSessionOpts(p1, m, nil, pi.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if storeDir != "" {
		sess.UsePreprocessed(pi.NewDirProvider(storeDir))
	}
	out := make([][]float64, len(flushes))
	if pipelined {
		ps := NewPipelinedSession(sess, c1)
		waits := make([]func() ([]float64, error), len(flushes))
		for i, x := range flushes {
			if waits[i], err = ps.BeginFlush(x); err != nil {
				t.Fatalf("pipelined flush %d: %v", i, err)
			}
		}
		for i, wait := range waits {
			if out[i], err = wait(); err != nil {
				t.Fatalf("pipelined flush %d wait: %v", i, err)
			}
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, x := range flushes {
			if out[i], err = sess.Query(x); err != nil {
				t.Fatalf("serialized flush %d: %v", i, err)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		c1.Close()
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("party 0: %v", serveErr)
	}
	return out
}

// TestPipelinedEquivalence is the determinism guard the pipelined flush
// schedule ships under: for every zoo program, pipelined ≡ serialized
// bit-identically on the live-dealer and the store-fed path, across
// kernel worker counts. (The two sourcing paths each have their own
// reference: a WriteStorePair store runs off its own per-geometry stream, so
// its outputs differ from the live dealer's by design — what must never
// differ is the schedule, anywhere within a path.)
func TestPipelinedEquivalence(t *testing.T) {
	for _, v := range zoo {
		t.Run(v.name, func(t *testing.T) {
			m := zooModel(v, 77)
			flushes := zooFlushes(v, 88)
			prog, err := pi.Compile(m.Net)
			if err != nil {
				t.Fatal(err)
			}
			storeDir := t.TempDir()
			shapes := [][]int{{1, v.inC, v.hw, v.hw}, {4, v.inC, v.hw, v.hw}}
			// Budget: each schedule (serialized and pipelined, per worker
			// count) replays its own providers, so cover one run's two
			// flushes per geometry.
			if _, err := writeStores(prog, zooDealerSeed, shapes, 2, storeDir); err != nil {
				t.Fatal(err)
			}
			refs := map[bool][][]float64{}
			for _, workers := range []int{1, 4} {
				prev := kernel.SetWorkers(workers)
				for _, storeFed := range []bool{false, true} {
					dir := ""
					if storeFed {
						dir = storeDir
					}
					for _, pipelined := range []bool{false, true} {
						got := runSchedule(t, m, flushes, pipelined, dir)
						ref, ok := refs[storeFed]
						if !ok {
							refs[storeFed] = got
							continue
						}
						label := fmt.Sprintf("workers=%d storeFed=%v pipelined=%v", workers, storeFed, pipelined)
						for f := range ref {
							if len(got[f]) != len(ref[f]) {
								t.Fatalf("%s: flush %d returned %d logits, want %d", label, f, len(got[f]), len(ref[f]))
							}
							for i := range ref[f] {
								if got[f][i] != ref[f][i] {
									t.Fatalf("%s: flush %d logit %d diverged: %v vs reference %v",
										label, f, i, got[f][i], ref[f][i])
								}
							}
						}
					}
				}
				kernel.SetWorkers(prev)
			}
		})
	}
}

// TestPipelinedSessionPoisonPropagates pins the failure contract: once a
// flush phase fails, the pair is poisoned — the failed flush's wait and
// every subsequent BeginFlush return errors instead of hanging.
func TestPipelinedSessionPoisonPropagates(t *testing.T) {
	v := zoo[0]
	m := zooModel(v, 77)
	storeDir := t.TempDir()
	prog, err := pi.Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	// Budget of a single N=1 flush: the second flush exhausts the store.
	if _, err := writeStores(prog, zooDealerSeed, [][]int{{1, v.inC, v.hw, v.hw}}, 1, storeDir); err != nil {
		t.Fatal(err)
	}
	c0, c1 := transport.Pipe()
	codec := fixed.Default64()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p0 := mpc.NewParty(0, c0, zooDealerSeed, 1, codec)
		sess, err := pi.NewSessionOpts(p0, m, nil, pi.SessionOptions{})
		if err != nil {
			return
		}
		sess.UsePreprocessed(pi.NewDirProvider(storeDir))
		_ = sess.Serve() // dies on the exhausted store, symmetrically
	}()
	p1 := mpc.NewParty(1, c1, zooDealerSeed, 2, codec)
	sess, err := pi.NewSessionOpts(p1, m, nil, pi.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess.UsePreprocessed(pi.NewDirProvider(storeDir))
	ps := NewPipelinedSession(sess, c1)
	x := tensor.New(1, v.inC, v.hw, v.hw)
	wait, err := ps.BeginFlush(x)
	if err != nil {
		t.Fatalf("budgeted flush: %v", err)
	}
	if _, err := wait(); err != nil {
		t.Fatalf("budgeted flush wait: %v", err)
	}
	if _, err := ps.BeginFlush(x); err == nil {
		t.Fatal("flush past the store budget must fail")
	}
	if _, err := ps.BeginFlush(x); err == nil {
		t.Fatal("a poisoned pipelined session must keep rejecting flushes")
	}
	ps.Kill()
	wg.Wait()
}
