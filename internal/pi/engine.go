package pi

import (
	"fmt"
	"time"

	"pasnet/internal/mpc"
	"pasnet/internal/obs"
)

// Engine executes a compiled program on one party's endpoint. Weight
// shares and their opened F = W−b are established once by Setup and reused
// across inferences, as in a deployed two-server system: every linear op
// runs owner-side per flush — party 1 sends its masked activation one way,
// party 0 multiplies by W itself (mpc fixedmask.go).
type Engine struct {
	// Prog is the compiled program.
	Prog *Program
	// party is bound at Setup.
	party *mpc.Party
	// weights holds this party's shares of the secret tensors, in the
	// program's weight-table (slot) order.
	weights []mpc.Share
	// fixedWs holds the per-weight opened F = W−b, parallel to weights.
	fixedWs []*mpc.FixedWeight
	// feed, when non-nil, receives every traced op's wall time (see
	// SetOpFeed). A nil feed keeps run free of clock reads.
	feed *obs.OpFeed
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

// Setup secret-shares the model parameters from party 0 (the model
// vendor). Both parties must call it before Infer. It runs in two passes
// over the weight table so its depth does not grow with the layer count:
// first every weight is shared (party 0 sends them back to back without
// waiting, so all the shares are in flight together), then one exchange
// opens every weight's F = W−b — the once-per-session cost the flushes
// then stop paying. Setup is one round trip.
func (e *Engine) Setup(p *mpc.Party) error {
	e.party = p
	e.weights = e.weights[:0]
	e.fixedWs = nil
	masks := make([]int, len(e.Prog.weights))
	for i := range e.Prog.weights {
		h := &e.Prog.weights[i]
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(h.weights)
		}
		sh, err := p.ShareInput(0, enc, h.shape...)
		if err != nil {
			return fmt.Errorf("pi: setup %s: %w", h.name, err)
		}
		if h.kind == headFC {
			// Infer computes y = x Wᵀ; store the transposed share once
			// (a local, deterministic re-layout both parties apply
			// identically) instead of re-materializing it per query.
			out, in := h.shape[0], h.shape[1]
			wt := mpc.NewShare(in, out)
			for r := 0; r < out; r++ {
				for c := 0; c < in; c++ {
					wt.V[c*out+r] = sh.V[r*in+c]
				}
			}
			sh = wt
		}
		e.weights = append(e.weights, sh)
		// The mask slot is the weight's table index, so the same layer
		// maps to the same slot on both parties and in every store built
		// for this program.
		masks[i] = i
	}
	fws, err := p.OpenFixedWs(masks, e.weights)
	if err != nil {
		return fmt.Errorf("pi: setup: opening F = W−b: %w", err)
	}
	e.fixedWs = fws
	return nil
}

// Infer runs the program on an input share and returns the output share.
func (e *Engine) Infer(x mpc.Share) (mpc.Share, error) {
	if e.party == nil {
		return mpc.Share{}, fmt.Errorf("pi: engine not set up")
	}
	p := e.party
	vals := make([]mpc.Share, e.Prog.maxValue+1)
	vals[0] = x
	for i := range e.Prog.Ops {
		op := &e.Prog.Ops[i]
		in := vals[op.in[0]]
		var start time.Time
		if e.feed != nil {
			start = time.Now()
		}
		var y mpc.Share
		var err error
		switch op.kind {
		case opLinear:
			ys, err := e.linear(in, op.slots)
			if err != nil {
				return mpc.Share{}, err
			}
			if e.feed != nil {
				e.traceHeads(op.slots, in.Shape, ys, time.Since(start).Seconds())
			}
			for j, y := range ys {
				vals[op.out[j]] = y
			}
			continue
		case opReLU:
			if y, err = p.ReLUBounded(in, op.bound); err != nil {
				return mpc.Share{}, fmt.Errorf("pi: relu: %w", err)
			}
		case opX2Act:
			if y, err = p.X2Act(in, op.x2); err != nil {
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
			if y, err = p.GlobalAvgPool2D(in); err != nil {
				return mpc.Share{}, fmt.Errorf("pi: gap: %w", err)
			}
			y = y.Reshape(y.Shape[0], y.Shape[1])
		case opFlatten:
			n := in.Shape[0]
			y = in.Reshape(n, in.Len()/n)
		case opAdd:
			y = p.Add(in, vals[op.in[1]])
		default:
			return mpc.Share{}, fmt.Errorf("pi: unknown op kind %d", op.kind)
		}
		vals[op.out[0]] = y
		// Flatten is a free reshape with no hwmodel identity.
		if e.feed != nil && op.kind != opFlatten {
			kind, shape := traceOp(op, in.Shape)
			e.feed.Record(kind, shape, in.Shape[0], time.Since(start).Seconds())
		}
	}
	return vals[0], nil
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

// linear runs the heads in slots — one, or a residual's two — on the one
// input x under one activation mask (mpc.Party.LinearFixedW), and adds
// each head's bias.
func (e *Engine) linear(x mpc.Share, slots []int) ([]mpc.Share, error) {
	p := e.party
	fops := make([]mpc.FixedWOp, len(slots))
	for i, s := range slots {
		h := &e.Prog.weights[s]
		fops[i] = mpc.FixedWOp{W: e.weights[s], FW: e.fixedWs[s]}
		if h.kind == headFC {
			// The In×Out transpose was materialized once at Setup.
			continue
		}
		if len(x.Shape) != 4 {
			return nil, fmt.Errorf("pi: %s expects NCHW input, got %v", h.name, x.Shape)
		}
		dims := mpc.ConvDims{
			N: x.Shape[0], InC: x.Shape[1], H: x.Shape[2], W: x.Shape[3],
			OutC: h.convSpec.OutC, KH: h.convSpec.KH, KW: h.convSpec.KW,
			Stride: h.convSpec.Stride, Pad: h.convSpec.Pad,
		}
		if h.kind == headDWConv {
			dims.Groups = dims.InC
			dims.OutC = dims.InC
		}
		fops[i].Conv = &dims
	}
	ys, err := p.LinearFixedW(x, fops...)
	if err != nil {
		return nil, fmt.Errorf("pi: %s: %w", e.Prog.weights[slots[0]].name, err)
	}
	for i, s := range slots {
		h := &e.Prog.weights[s]
		if h.kind == headFC {
			ys[i], err = p.AddBiasVec(ys[i], h.bias)
		} else if h.bias != nil {
			ys[i], err = p.AddBias(ys[i], h.bias)
		}
		if err != nil {
			return nil, fmt.Errorf("pi: %s bias: %w", h.name, err)
		}
	}
	return ys, nil
}
