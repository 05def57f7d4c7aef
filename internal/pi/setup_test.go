package pi

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/transport"
)

// Session bring-up suite: Setup is one frame from party 0 carrying every
// weight's F = W−b, so its depth is one one-way delay whatever the layer
// count. The golden digest pins that no F value moved, the wire pin that
// party 0 sends that one frame and party 1 nothing, and the delay pin the
// depth. The hostile-header cases pin how bring-up fails.

// demoModel is the ledger's served shape — ResNet-18 at width 1/16 on
// 3×8×8 inputs, 4 classes, all-X² — untrained: bring-up never depends on
// weight values, and initialization is seeded.
func demoModel(t testing.TB) *models.Model {
	t.Helper()
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = 8
	cfg.NumClasses = 4
	cfg.TrainScaleOps = true
	cfg.Act, cfg.Pool = models.ActX2, models.PoolAvg
	m, err := models.ByName("resnet18", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The demo backbone's L weight tensors hold this many words in all.
const (
	demoLayers      = 21
	demoWeightWords = 43820
)

func demoProgram(t testing.TB) *Program {
	t.Helper()
	prog, err := Compile(demoModel(t).Net)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// setupSeed is the dealer seed setupBoth runs both parties under.
const setupSeed = 4242

// setupBoth runs Engine.Setup for both parties over the given endpoints
// and returns the two engines. A party that fails closes its endpoint so
// the other cannot wait on it forever.
func setupBoth(t *testing.T, prog *Program, c0, c1 transport.Conn) [2]*Engine {
	t.Helper()
	var engs [2]*Engine
	errs := make(chan error, 2)
	for id, c := range []transport.Conn{c0, c1} {
		eng := NewEngine(prog)
		engs[id] = eng
		p := mpc.NewParty(id, c, setupSeed, uint64(100+id), fixed.Default64())
		go func() {
			err := eng.Setup(p)
			if err != nil {
				c.Close()
			}
			errs <- err
		}()
	}
	if err := errors.Join(<-errs, <-errs); err != nil {
		t.Fatal(err)
	}
	return engs
}

// wordsDigest is FNV-1a over the little-endian bytes of every word of vs,
// in order.
func wordsDigest(vs ...[]uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for _, w := range v {
			binary.LittleEndian.PutUint64(b[:], w)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// goldenSetupF is the digest of every F = W−b the demo backbone's Setup
// fixes under setupBoth's seeds.
const goldenSetupF uint64 = 0x2f1f6690b7093716

// TestSetupGoldenDigests pins every F of the demo backbone under Setup to
// the digest recorded while Setup still secret-shared the weights and
// opened F — no F word may move — and checks that both parties hold the
// same F under each slot.
func TestSetupGoldenDigests(t *testing.T) {
	prog := demoProgram(t)
	c0, c1 := transport.Pipe()
	engs := setupBoth(t, prog, c0, c1)
	var fs [2][][]uint64
	for id, eng := range engs {
		if len(eng.fixedWs) != demoLayers {
			t.Fatalf("party %d: %d fixed weights, want %d", id, len(eng.fixedWs), demoLayers)
		}
		for i, fw := range eng.fixedWs {
			if fw.Mask != i {
				t.Fatalf("party %d: weight %d fixed under slot %d", id, i, fw.Mask)
			}
			fs[id] = append(fs[id], fw.F())
		}
	}
	f0, f1 := wordsDigest(fs[0]...), wordsDigest(fs[1]...)
	if f0 != f1 {
		t.Fatalf("the parties hold different F: %#x vs %#x", f0, f1)
	}
	if f0 != goldenSetupF {
		t.Fatalf("setup F digest moved: %#x, want %#x", f0, goldenSetupF)
	}
}

// TestSetupWireFrames pins what Setup puts on the wire for the demo
// backbone's L = 21 weight tensors of W words in all: party 0 sends one
// frame of every F (8·W bytes), party 1 sends nothing, whatever L is.
func TestSetupWireFrames(t *testing.T) {
	prog := demoProgram(t)
	if n := prog.NumSecretTensors(); n != demoLayers {
		t.Fatalf("demo backbone has %d weight tensors, want %d", n, demoLayers)
	}
	m0, m1 := transport.Pipe()
	w0, w1 := obs.InstrumentConn(m0, nil), obs.InstrumentConn(m1, nil)
	setupBoth(t, prog, w0, w1)
	t0, t1 := w0.Totals(), w1.Totals()
	if t0.SentFrames != 1 || t0.SentBytes != 8*demoWeightWords || t1.SentFrames != 0 || t1.SentBytes != 0 {
		t.Errorf("party 0 sent %d frames / %d B, party 1 %d / %d; want 1 / %d and 0 / 0",
			t0.SentFrames, t0.SentBytes, t1.SentFrames, t1.SentBytes, 8*demoWeightWords)
	}
}

// TestSetupDepthConstant pins setup depth over a 20 ms one-way link: a
// Setup of the demo backbone is one frame from party 0, so it finishes
// under two one-way delays whatever the layer count.
func TestSetupDepthConstant(t *testing.T) {
	const delay = 20 * time.Millisecond
	prog := demoProgram(t)
	c0, c1 := transport.DelayPipe(delay)
	defer c0.Close()
	start := time.Now()
	setupBoth(t, prog, c0, c1)
	if el := time.Since(start); el >= 2*delay {
		t.Fatalf("setup took %v over a %v link, want under %v (one frame)", el, delay, 2*delay)
	}
}

// shapeFrame encodes a raw 's' frame: kind, little-endian length, dims.
func shapeFrame(dims ...int) []byte {
	f := []byte{'s', byte(4 * len(dims)), 0, 0, 0}
	for _, d := range dims {
		f = binary.LittleEndian.AppendUint32(f, uint32(d))
	}
	return f
}

// TestHostileShareHeaderRejected injects raw 'U' headers over net.Pipe
// where a bounded frame belongs — on the weight path (party 1's Setup,
// receiving every F in one frame) and on the input path (party 0's flush,
// after the shape and source round). A header claiming 2²⁷ words, or one
// word more than the frame holds, must fail at the header: a descriptive
// error, no payload allocation, no wait for bytes that never come.
func TestHostileShareHeaderRejected(t *testing.T) {
	m := demoModel(t)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	const queryWords = 3 * 8 * 8
	for _, tc := range []struct {
		name   string
		words  int // the hostile header's claim
		weight bool
	}{
		{"weight/2^27-words", 1 << 27, true},
		{"weight/one-word-over", demoWeightWords + 1, true},
		{"input/2^27-words", 1 << 27, false},
		{"input/one-word-over", queryWords + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hostile, victim := net.Pipe()
			defer hostile.Close()
			defer victim.Close()
			go io.Copy(io.Discard, hostile)
			header := binary.LittleEndian.AppendUint32([]byte{'U'}, uint32(8*tc.words))
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			done := make(chan error, 1)
			if tc.weight {
				go hostile.Write(header)
				go func() {
					p1 := mpc.NewParty(1, transport.NewTCPConn(victim), 5, 7, fixed.Default64())
					done <- NewEngine(prog).Setup(p1)
				}()
			} else {
				go func() {
					// The hostile peer sends the shape, then stamps the live
					// dealer; the drain above reads party 0's frames,
					// Setup's F among them.
					for _, f := range [][]byte{shapeFrame(1, 3, 8, 8), shapeFrame(0, 0, 0), header} {
						if _, err := hostile.Write(f); err != nil {
							return
						}
					}
				}()
				go func() {
					p0 := mpc.NewParty(0, transport.NewTCPConn(victim), 5, 6, fixed.Default64())
					sess, err := NewSessionOpts(p0, m, []int{0, 3, 8, 8}, SessionOptions{})
					if err == nil {
						_, _, err = sess.ServeOne()
					}
					done <- err
				}()
			}
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "exceeds expected") {
					t.Fatalf("hostile %d-word header: want a bounded-receive error, got: %v", tc.words, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("hostile %d-word header: receive waited for a payload that never comes", tc.words)
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("hostile header cost %d MiB of allocation, want the header refused before any payload", grew>>20)
			}
		})
	}
}
