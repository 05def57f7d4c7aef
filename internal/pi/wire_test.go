package pi

import (
	"io"
	"testing"

	"pasnet/internal/dataset"
	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nas"
	"pasnet/internal/obs"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// trainedDemoModel trains the demo backbone (ResNet18 at width 1/16 on
// 8×8 inputs, four classes) in one program class, as the served-query
// benchmark does: relu-max, x2-avg, or mixed (X²act and average pooling at
// even slots, ReLU and max pooling at odd ones). It is trained once per
// class and cached (trainedModels): callers must not mutate it.
func trainedDemoModel(t *testing.T, class string) *models.Model {
	t.Helper()
	if c, ok := cachedModel("demo/" + class); ok {
		return c.m
	}
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = 8
	cfg.NumClasses = 4
	cfg.TrainScaleOps = true
	switch class {
	case "relu-max":
		cfg.Act, cfg.Pool = models.ActReLU, models.PoolMax
	case "x2-avg":
		cfg.Act, cfg.Pool = models.ActX2, models.PoolAvg
	case "mixed":
		cfg.ActAt = func(slot int) models.ActChoice {
			if slot%2 == 0 {
				return models.ActX2
			}
			return models.ActReLU
		}
		cfg.PoolAt = func(slot int) models.PoolChoice {
			if slot%2 == 0 {
				return models.PoolAvg
			}
			return models.PoolMax
		}
	}
	m, err := models.ByName("resnet18", cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: 8, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})
	opts := nas.DefaultTrainOptions()
	opts.Steps = 20
	opts.BatchSize = 8
	if _, err := nas.TrainModel(m, d, d, opts); err != nil {
		t.Fatal(err)
	}
	trainedModels.Store("demo/"+class, trainedModel{m, d})
	return m
}

// wireFormula derives each party's sent frames and bytes over one served
// flush of prog at input shape from the program alone:
//   - control: each party sends its shape frame (4 bytes a dim) and its
//     source stamp (3 words of 4 bytes);
//   - each linear op: party 1 sends E' = X − a, one frame of the op's
//     input words — except a residual's shortcut head when the body also
//     starts with a linear op, which rides in the body head's E'. The query
//     itself sends nothing: it is party 1's input share, and the stem's E'
//     is its only frame;
//   - each X²act: the square pair's opening, one input-sized frame each way;
//   - each ReLU layer: one frame each way per owned round, on the wide
//     comparison 434, 98 and 14 products per element, on the narrow one
//     (a recorded bound with headroom) 147 and 30, one bit each, packed;
//     then the select, one bit and one word per element each way;
//   - the reveal: one frame of the logits each way.
func wireFormula(t *testing.T, prog *Program, shape []int) (frames, bytes [2]int64) {
	t.Helper()
	codec := fixed.Default64()
	send := func(party, words int) {
		frames[party]++
		bytes[party] += 8 * int64(words)
	}
	for party := range 2 {
		frames[party] += 2
		bytes[party] += 4*int64(len(shape)) + 4*3
	}
	shapes := make([][]int, prog.maxValue+1)
	shapes[0] = shape
	for _, op := range prog.Ops {
		shape := shapes[op.in[0]]
		n := 1
		for _, d := range shape {
			n *= d
		}
		switch op.kind {
		case opLinear:
			send(1, n)
			for j, s := range op.slots {
				h := &prog.weights[s]
				if h.kind == headFC {
					shapes[op.out[j]] = []int{shape[0], h.shape[0]}
					continue
				}
				cs := h.convSpec
				oc := cs.OutC
				if h.kind == headDWConv {
					oc = shape[1]
				}
				hw := (shape[2]+2*cs.Pad-cs.KH)/cs.Stride + 1
				shapes[op.out[j]] = []int{shape[0], oc, hw, hw}
			}
			continue
		case opX2Act:
			send(0, n)
			send(1, n)
		case opReLU:
			rounds := []int{434, 98, 14}
			if mpc.ReLUHeadroom(codec, op.bound) > mpc.NarrowMargin {
				rounds = []int{147, 30}
			}
			for party := range 2 {
				for _, k := range rounds {
					send(party, mpc.BitWords(k*n))
				}
				send(party, mpc.BitWords(n)+n)
			}
		case opAvgPool:
			hw := (shape[2]-op.k)/op.stride + 1
			shape = []int{shape[0], shape[1], hw, hw}
		case opGlobalAvgPool:
			shape = []int{shape[0], shape[1]}
		case opFlatten:
			shape = []int{shape[0], n / shape[0]}
		case opAdd:
		default:
			t.Fatalf("no wire formula for op kind %d (%s)", op.kind, op.name)
		}
		shapes[op.out[0]] = shape
	}
	out := shapes[0]
	logits := 1
	for _, d := range out {
		logits *= d
	}
	send(0, logits)
	send(1, logits)
	return frames, bytes
}

// TestServedFlushWire pins each party's sent frames and bytes over one
// flush of the demo backbone, served by a loopback session pair, to the
// wire formula, in the three program classes at one and two rows: a
// protocol change that moves the session's wire totals must move the
// formula with it.
func TestServedFlushWire(t *testing.T) {
	for _, class := range []string{"relu-max", "x2-avg", "mixed"} {
		m := trainedDemoModel(t, class)
		prog, err := Compile(m.Net)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{1, 2} {
			x := tensor.New(rows, 3, 8, 8)
			for i := range x.Data {
				x.Data[i] = float64(i%7)/7 - 0.5
			}
			wantFrames, wantBytes := wireFormula(t, prog, x.Shape)
			c0, c1 := transport.Pipe()
			wires := [2]*obs.WireConn{obs.InstrumentConn(c0, nil), obs.InstrumentConn(c1, nil)}
			links := [2]io.Closer{wires[0], wires[1]}
			var sess [2]*Session
			err := mpc.RunPair(links, func(id int) error {
				p := mpc.NewParty(id, wires[id], 21, 22+uint64(id), fixed.Default64())
				var err error
				sess[id], err = NewSessionOpts(p, m, []int{0, 3, 8, 8}, SessionOptions{})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			before := [2]obs.WireTotals{wires[0].Totals(), wires[1].Totals()}
			err = mpc.RunPair(links, func(id int) error {
				if id == 0 {
					_, _, err := sess[0].ServeOne()
					return err
				}
				_, err := sess[1].Query(x)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for id := range 2 {
				got := wires[id].Totals()
				frames, bytes := got.SentFrames-before[id].SentFrames, got.SentBytes-before[id].SentBytes
				if frames != wantFrames[id] || bytes != wantBytes[id] {
					t.Errorf("%s N=%d party %d sent %d frames / %d B per flush, the program's formula gives %d / %d",
						class, rows, id, frames, bytes, wantFrames[id], wantBytes[id])
				}
			}
			sess[1].Close()
			wires[0].Close()
			wires[1].Close()
		}
	}
}
