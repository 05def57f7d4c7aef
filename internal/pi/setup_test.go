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

// Session bring-up suite: Setup shares every weight and then opens every
// F = W−b in one exchange, so its depth is constant in the layer count.
// The golden digests pin that the batching moved no share or F value, the
// wire pin that it moved no payload byte and sends the fewest frames, and
// the delay pin that the depth really is constant. The hostile-header
// cases pin how bring-up fails.

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
		p := mpc.NewParty(id, c, 4242, uint64(100+id), fixed.Default64())
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
// opens under setupBoth's seeds.
const goldenSetupF uint64 = 0x2f1f6690b7093716

// TestSetupGoldenDigests pins both parties' weight shares and every opened
// F of the demo backbone under Setup to digests recorded when
// Setup still opened one layer per exchange: batching the openings must
// not move a single share or F word.
func TestSetupGoldenDigests(t *testing.T) {
	const (
		wantShares0 uint64 = 0x069710e2fb8ec0b7
		wantShares1 uint64 = 0xd68f49a949488e8f
		wantF              = goldenSetupF
	)
	prog := demoProgram(t)
	c0, c1 := transport.Pipe()
	engs := setupBoth(t, prog, c0, c1)
	var digests [2]uint64
	var fs [2][][]uint64
	for id, eng := range engs {
		var vs [][]uint64
		for _, w := range eng.weights {
			vs = append(vs, w.V)
		}
		digests[id] = wordsDigest(vs...)
		if len(eng.fixedWs) != len(eng.weights) {
			t.Fatalf("party %d: %d openings for %d weights", id, len(eng.fixedWs), len(eng.weights))
		}
		for i, fw := range eng.fixedWs {
			if fw.Mask != i {
				t.Fatalf("party %d: weight %d opened under slot %d", id, i, fw.Mask)
			}
			fs[id] = append(fs[id], fw.F)
		}
	}
	f0, f1 := wordsDigest(fs[0]...), wordsDigest(fs[1]...)
	if f0 != f1 {
		t.Fatalf("the parties opened different F: %#x vs %#x", f0, f1)
	}
	if digests[0] != wantShares0 || digests[1] != wantShares1 || f0 != wantF {
		t.Fatalf("setup digests moved: shares %#x/%#x F %#x, want %#x/%#x F %#x",
			digests[0], digests[1], f0, wantShares0, wantShares1, wantF)
	}
}

// TestSetupWireFrames pins what Setup puts on the wire for the demo
// backbone's L = 21 weight tensors of W words in all: party 0 sends L
// shares plus its one opening half (L + 1 frames), party 1 only its
// opening half (1 frame, whatever L is). The payload bytes are the
// one-layer-per-exchange figures, to the byte (that schedule sent 2L and L
// frames).
func TestSetupWireFrames(t *testing.T) {
	prog := demoProgram(t)
	if n := prog.NumSecretTensors(); n != demoLayers {
		t.Fatalf("demo backbone has %d weight tensors, want %d", n, demoLayers)
	}
	m0, m1 := transport.Pipe()
	w0, w1 := obs.InstrumentConn(m0, nil), obs.InstrumentConn(m1, nil)
	setupBoth(t, prog, w0, w1)
	t0, t1 := w0.Totals(), w1.Totals()
	if t0.SentFrames != demoLayers+1 || t0.SentBytes != 16*demoWeightWords || t1.SentFrames != 1 || t1.SentBytes != 8*demoWeightWords {
		t.Errorf("party 0 sent %d frames / %d B, party 1 %d / %d; want %d / %d and 1 / %d",
			t0.SentFrames, t0.SentBytes, t1.SentFrames, t1.SentBytes,
			demoLayers+1, 16*demoWeightWords, 8*demoWeightWords)
	}
}

// TestSetupDepthConstant pins setup depth over a 20 ms one-way link: a
// Setup of the demo backbone is one round trip (all shares and
// party 0's opening half in flight together, then party 1's half), so it
// finishes well under five one-way delays. Opening one layer per exchange
// took two delays per weight tensor, about 42 × 20 ms here.
func TestSetupDepthConstant(t *testing.T) {
	const delay = 20 * time.Millisecond
	prog := demoProgram(t)
	c0, c1 := transport.DelayPipe(delay)
	defer c0.Close()
	start := time.Now()
	setupBoth(t, prog, c0, c1)
	if el := time.Since(start); el >= 5*delay {
		t.Fatalf("setup took %v over a %v link, want under %v (constant depth)", el, delay, 5*delay)
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
// where a share belongs — on the weight path (party 1's Setup) and on the
// input path (party 0's flush, after a well-formed F opening, shape and
// source round). A header claiming 2²⁷ words, or one word more than the share
// holds, must fail at the header: a descriptive error, no payload
// allocation, no wait for bytes that never come.
func TestHostileShareHeaderRejected(t *testing.T) {
	m := demoModel(t)
	prog, err := Compile(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	firstWeight := 1
	for _, d := range prog.weights[0].shape {
		firstWeight *= d
	}
	const queryWords = 3 * 8 * 8
	for _, tc := range []struct {
		name   string
		words  int // the hostile header's claim
		weight bool
	}{
		{"weight/2^27-words", 1 << 27, true},
		{"weight/one-word-over", firstWeight + 1, true},
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
					// The hostile peer answers Setup's F = W−b opening with
					// an all-zero half, then the shape, then stamps the live
					// dealer; the drain above reads party 0's frames.
					opening := binary.LittleEndian.AppendUint32([]byte{'U'}, 8*demoWeightWords)
					opening = append(opening, make([]byte, 8*demoWeightWords)...)
					for _, f := range [][]byte{opening, shapeFrame(1, 3, 8, 8), shapeFrame(0, 0, 0), header} {
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
