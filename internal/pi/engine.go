package pi

import (
	"fmt"
	"time"

	"pasnet/internal/mpc"
	"pasnet/internal/obs"
)

// Engine executes a compiled program on one party's endpoint. Every
// weight is fixed once by Setup — party 0 sends its F = W−b — and reused
// across inferences, as in a deployed two-server system: every linear op
// runs owner-side per flush — party 1 sends its masked activation one way,
// party 0 multiplies by W itself (mpc fixedmask.go).
type Engine struct {
	// Prog is the compiled program.
	Prog *Program
	// party is bound at Setup.
	party *mpc.Party
	// fixedWs holds every weight fixed under its mask, in the program's
	// weight-table (slot) order.
	fixedWs []*mpc.FixedWeight
	// feed, when non-nil, receives every traced op's wall time (see
	// SetOpFeed). A nil feed keeps run free of clock reads.
	feed *obs.OpFeed
	// ws is the flush workspace, built by the first Infer after Setup.
	ws *workspace
}

// workspace holds what Infer reuses from flush to flush: two buffers per
// value ID, grown by capacity, so a served flush allocates no activation
// tensor once the buffers have reached its size, and each weight slot's
// bias, encoded once.
type workspace struct {
	// bufs[2v+j] is value v's buffer j.
	bufs [][]uint64
	// vals holds each value's share during a flush, home the index into
	// bufs of the buffer behind it (-1: memory the workspace does not own,
	// the flush input, an op's own result or a bound store's words).
	vals []mpc.Share
	home []int
	// bias is each weight slot's encoded bias (nil: none).
	bias [][]uint64
	// fops, homes and dims are linear's per-head arguments, one per head
	// of the program's widest linear op.
	fops  []mpc.FixedWOp
	homes []int
	dims  []mpc.ConvDims
}

// NewEngine wraps a program.
func NewEngine(prog *Program) *Engine { return &Engine{Prog: prog} }

// SetOpFeed installs the per-op tracer: every Infer call reports each
// executed operator's wall time to feed, keyed by the hwmodel geometry it
// ran at and covering all batch rows of the flush. The measurement is
// taken on this party while both run in lockstep, so it includes the
// protocol's round-trip waits — the quantity the 2PC latency model
// predicts. Tracing is local to this engine: the peer needs no matching
// toggle and the protocol stream is unchanged. A nil feed disables it.
func (e *Engine) SetOpFeed(feed *obs.OpFeed) { e.feed = feed }

// Setup fixes the model's weights for the session: party 0 (the model
// vendor) encodes every weight and sends all their F = W−b in one frame,
// which party 1 receives (mpc.Party.FixWeights). No weight is ever
// secret-shared, and setup is one one-way frame whatever the layer count.
// Both parties must call it before Infer.
func (e *Engine) Setup(p *mpc.Party) error {
	e.party = p
	e.fixedWs = nil
	e.ws = nil
	n := len(e.Prog.weights)
	masks, shapes := make([]int, n), make([][]int, n)
	var ws [][]uint64
	for i := range e.Prog.weights {
		h := &e.Prog.weights[i]
		// The mask slot is the weight's table index, so the same layer
		// maps to the same slot on both parties and in every store built
		// for this program.
		masks[i], shapes[i] = i, h.shape
		if h.kind == headFC {
			// Infer computes y = x Wᵀ; fix the In×Out transpose once
			// instead of re-materializing it per query.
			shapes[i] = []int{h.shape[1], h.shape[0]}
		}
		if p.ID != 0 {
			continue
		}
		enc := p.EncodeTensor(h.weights)
		if h.kind == headFC {
			out, in := h.shape[0], h.shape[1]
			wt := make([]uint64, len(enc))
			for r := 0; r < out; r++ {
				for c := 0; c < in; c++ {
					wt[c*out+r] = enc[r*in+c]
				}
			}
			enc = wt
		}
		ws = append(ws, enc)
	}
	fws, err := p.FixWeights(masks, shapes, ws)
	if err != nil {
		return fmt.Errorf("pi: setup: fixing F = W−b: %w", err)
	}
	e.fixedWs = fws
	return nil
}

// Infer runs the program on an input share and returns the output share,
// which the caller owns.
//
// Every op writes into the workspace (see workspace): into whichever of
// its output value's two buffers holds none of its inputs, so an op that
// reads and writes one value ping-pongs between that value's buffers, and
// a reshape keeps its input's buffer. Value IDs are reused only once their
// old contents are dead, so this never overwrites a live value. The
// comparison ops (ReLU, max pooling) and a windowed average pool return
// shares of their own, and party 1's linear ops from a bound store their
// store's Y₁ words (see linear), which the flush reads in place: no op
// writes its inputs, so a store's words stay as they were bound.
func (e *Engine) Infer(x mpc.Share) (mpc.Share, error) {
	if e.party == nil {
		return mpc.Share{}, fmt.Errorf("pi: engine not set up")
	}
	if e.ws == nil {
		e.ws = e.newWorkspace()
	}
	p, ws := e.party, e.ws
	ws.vals[0], ws.home[0] = x, -1
	for i := range e.Prog.Ops {
		op := &e.Prog.Ops[i]
		in := ws.vals[op.in[0]]
		var start time.Time
		if e.feed != nil {
			start = time.Now()
		}
		var y mpc.Share
		var err error
		home := -1
		switch op.kind {
		case opLinear:
			ys, err := e.linear(op, in)
			if err != nil {
				return mpc.Share{}, err
			}
			if e.feed != nil {
				e.traceHeads(op.slots, in.Shape, ys, time.Since(start).Seconds())
			}
			continue
		case opReLU:
			if y, err = p.ReLUBounded(in, op.bound); err != nil {
				return mpc.Share{}, fmt.Errorf("pi: relu: %w", err)
			}
		case opX2Act:
			y = mpc.Share{Shape: in.Shape}
			if y.V, home, err = e.buffer(op, 0, in.Shape); err == nil {
				err = p.X2ActTo(y, in, op.x2)
			}
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: x2act: %w", err)
			}
		case opMaxPool:
			if y, err = p.MaxPool2D(in, op.k, op.k, op.stride); err != nil {
				return mpc.Share{}, fmt.Errorf("pi: maxpool: %w", err)
			}
		case opAvgPool:
			if y, err = p.AvgPool2D(in, op.k, op.k, op.stride); err != nil {
				return mpc.Share{}, fmt.Errorf("pi: avgpool: %w", err)
			}
		case opGlobalAvgPool:
			if len(in.Shape) != 4 {
				return mpc.Share{}, fmt.Errorf("pi: gap needs an NCHW input, got %v", in.Shape)
			}
			y = mpc.Share{Shape: in.Shape[:2:2]}
			if y.V, home, err = e.buffer(op, 0, y.Shape); err == nil {
				err = p.AvgPool2DTo(y, in, in.Shape[2], in.Shape[3], 1)
			}
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: gap: %w", err)
			}
		case opFlatten:
			n := in.Shape[0]
			y, home = in.Reshape(n, in.Len()/n), ws.home[op.in[0]]
		case opAdd:
			y = mpc.Share{Shape: in.Shape}
			if y.V, home, err = e.buffer(op, 0, in.Shape); err != nil {
				return mpc.Share{}, fmt.Errorf("pi: add: %w", err)
			}
			p.AddTo(y, in, ws.vals[op.in[1]])
		default:
			return mpc.Share{}, fmt.Errorf("pi: unknown op kind %d", op.kind)
		}
		ws.vals[op.out[0]], ws.home[op.out[0]] = y, home
		// Flatten is a free reshape with no hwmodel identity.
		if e.feed != nil && op.kind != opFlatten {
			kind, shape := traceOp(op, in.Shape)
			e.feed.Record(kind, shape, in.Shape[0], time.Since(start).Seconds())
		}
	}
	out := ws.vals[0].Clone()
	clear(ws.vals)
	return out, nil
}

// newWorkspace sizes the workspace for the program and encodes every
// bias with the party's codec; the buffers themselves grow on first use.
func (e *Engine) newWorkspace() *workspace {
	nv := e.Prog.maxValue + 1
	heads := 0
	for i := range e.Prog.Ops {
		heads = max(heads, len(e.Prog.Ops[i].slots))
	}
	ws := &workspace{
		bufs:  make([][]uint64, 2*nv),
		vals:  make([]mpc.Share, nv),
		home:  make([]int, nv),
		bias:  make([][]uint64, len(e.Prog.weights)),
		fops:  make([]mpc.FixedWOp, heads),
		homes: make([]int, heads),
		dims:  make([]mpc.ConvDims, heads),
	}
	for i := range e.Prog.weights {
		if b := e.Prog.weights[i].bias; b != nil {
			ws.bias[i] = e.party.EncodeTensor(b)
		}
	}
	return ws
}

// buffer returns the words op's output j, of the given shape, is to be
// written to, with their buffer's workspace index: the one of the output
// value's two buffers behind none of op's inputs, grown to the shape's
// size if it is short.
func (e *Engine) buffer(op *progOp, j int, shape []int) ([]uint64, int, error) {
	ws, v := e.ws, op.out[j]
	busy := func(h int) bool {
		for _, in := range op.in {
			if ws.home[in] == h {
				return true
			}
		}
		return false
	}
	h := 2 * v
	if busy(h) {
		if h++; busy(h) {
			return nil, 0, fmt.Errorf("pi: %s: both buffers of value %d hold its inputs", op.name, v)
		}
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n < 0 {
		return nil, 0, fmt.Errorf("pi: %s: output shape of %d words", op.name, n)
	}
	if cap(ws.bufs[h]) < n {
		ws.bufs[h] = make([]uint64, n)
	}
	return ws.bufs[h][:n], h, nil
}

// traceHeads reports a linear op's readings, one per head: the op ran in
// sec, which is split between its heads in proportion to their
// multiplies (output words times multiplies per output word).
func (e *Engine) traceHeads(slots []int, inShape []int, ys []mpc.Share, sec float64) {
	work := make([]float64, len(slots))
	total := 0.0
	for i, s := range slots {
		h := &e.Prog.weights[s]
		// A weight tensor's leading dim is its output channels (features),
		// so its length over that is the multiplies per output word.
		work[i] = float64(ys[i].Len()) * float64(len(h.weights)/h.shape[0])
		total += work[i]
	}
	for i, s := range slots {
		kind, shape := traceHead(&e.Prog.weights[s], inShape)
		e.feed.Record(kind, shape, inShape[0], sec*work[i]/total)
	}
}

// linear runs op's heads — one, or a residual's two — on the one input x
// under one activation mask (mpc.Party.LinearFixedW), each writing its
// value's workspace buffer with its bias added in the op's last pass, and
// returns the heads' outputs. Party 1 from a bound store writes no buffer:
// each head's output is its store's Y₁ words, handed over.
func (e *Engine) linear(op *progOp, x mpc.Share) ([]mpc.Share, error) {
	ws := e.ws
	fops, homes := ws.fops[:len(op.slots)], ws.homes[:len(op.slots)]
	for i, s := range op.slots {
		h := &e.Prog.weights[s]
		fops[i] = mpc.FixedWOp{FW: e.fixedWs[s], Bias: ws.bias[s]}
		var shape [4]int
		rank := 2
		if h.kind == headFC {
			// The In×Out transpose was fixed once at Setup;
			// LinearFixedW checks the input against it.
			shape[0], shape[1] = x.Shape[0], h.shape[0]
		} else {
			if len(x.Shape) != 4 {
				return nil, fmt.Errorf("pi: %s expects NCHW input, got %v", h.name, x.Shape)
			}
			dims := &ws.dims[i]
			*dims = mpc.ConvDims{
				N: x.Shape[0], InC: x.Shape[1], H: x.Shape[2], W: x.Shape[3],
				OutC: h.convSpec.OutC, KH: h.convSpec.KH, KW: h.convSpec.KW,
				Stride: h.convSpec.Stride, Pad: h.convSpec.Pad,
			}
			if h.kind == headDWConv {
				dims.Groups = dims.InC
				dims.OutC = dims.InC
			}
			fops[i].Conv = dims
			oh, ow := dims.OutHW()
			shape, rank = [4]int{dims.N, dims.OutC, oh, ow}, 4
		}
		var err error
		if fops[i].Out, homes[i], err = e.buffer(op, i, shape[:rank]); err != nil {
			return nil, err
		}
	}
	ys, err := e.party.LinearFixedW(x, fops...)
	if err != nil {
		return nil, fmt.Errorf("pi: %s: %w", e.Prog.weights[op.slots[0]].name, err)
	}
	for i, y := range ys {
		if len(y.V) > 0 && &y.V[0] != &fops[i].Out[0] {
			homes[i] = -1 // party 1's bound store words, handed over
		}
		ws.vals[op.out[i]], ws.home[op.out[i]] = y, homes[i]
	}
	return ys, nil
}
