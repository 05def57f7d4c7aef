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
	// weights holds this party's shares of the secret tensors, indexed
	// in program order (depth-first through residual branches).
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
// over the program so its depth does not grow with the layer count: first
// every weight is shared (party 0 sends them back to back without waiting,
// so all the shares are in flight together), then one exchange opens every
// weight's F = W−b — the once-per-session cost the flushes then stop
// paying. Setup is one round trip.
func (e *Engine) Setup(p *mpc.Party) error {
	e.party = p
	e.weights = e.weights[:0]
	e.fixedWs = nil
	if err := e.shareWeights(p, e.Prog); err != nil {
		return err
	}
	// The mask slot is the weight's program-order index, so the same layer
	// maps to the same slot on both parties and in every store built for
	// this program.
	masks := make([]int, len(e.weights))
	for i := range masks {
		masks[i] = i
	}
	fws, err := p.OpenFixedWs(masks, e.weights)
	if err != nil {
		return fmt.Errorf("pi: setup: opening F = W−b: %w", err)
	}
	e.fixedWs = fws
	return nil
}

// shareWeights is Setup's first pass: it secret-shares every weight tensor
// in program order (depth-first through residual branches).
func (e *Engine) shareWeights(p *mpc.Party, prog *Program) error {
	for i := range prog.Ops {
		op := &prog.Ops[i]
		switch op.kind {
		case opConv, opDWConv, opLinear:
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(op.weights)
			}
			sh, err := p.ShareInput(0, enc, op.weightShape...)
			if err != nil {
				return fmt.Errorf("pi: setup %s: %w", op.name, err)
			}
			if op.kind == opLinear {
				// Infer computes y = x Wᵀ; store the transposed share once
				// (a local, deterministic re-layout both parties apply
				// identically) instead of re-materializing it per query.
				out, in := op.weightShape[0], op.weightShape[1]
				wt := mpc.NewShare(in, out)
				for r := 0; r < out; r++ {
					for c := 0; c < in; c++ {
						wt.V[c*out+r] = sh.V[r*in+c]
					}
				}
				sh = wt
			}
			e.weights = append(e.weights, sh)
		case opResidual:
			if err := e.shareWeights(p, op.body); err != nil {
				return err
			}
			if op.shortcut != nil {
				if err := e.shareWeights(p, op.shortcut); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Infer runs the program on an input share and returns the output share.
func (e *Engine) Infer(x mpc.Share) (mpc.Share, error) {
	if e.party == nil {
		return mpc.Share{}, fmt.Errorf("pi: engine not set up")
	}
	widx := 0
	return e.run(e.Prog.Ops, x, &widx)
}

func (e *Engine) run(ops []progOp, x mpc.Share, widx *int) (mpc.Share, error) {
	p := e.party
	var err error
	for i := range ops {
		op := &ops[i]
		// Flatten is a free reshape with no hwmodel identity.
		trace := e.feed != nil && op.kind != opFlatten
		var inShape []int
		var opStart time.Time
		if trace {
			inShape = x.Shape
			opStart = time.Now()
		}
		switch op.kind {
		case opConv, opDWConv, opLinear:
			var ys []mpc.Share
			ys, err = e.linear(x, []*progOp{op}, []int{*widx})
			*widx++
			if err != nil {
				return mpc.Share{}, err
			}
			x = ys[0]
		case opReLU:
			x, err = p.ReLUBounded(x, op.bound)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: relu: %w", err)
			}
		case opX2Act:
			x, err = p.X2Act(x, op.x2)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: x2act: %w", err)
			}
		case opMaxPool:
			x, err = p.MaxPool2D(x, op.k, op.k, op.stride)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: maxpool: %w", err)
			}
		case opAvgPool:
			x, err = p.AvgPool2D(x, op.k, op.k, op.stride)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: avgpool: %w", err)
			}
		case opGlobalAvgPool:
			x, err = p.GlobalAvgPool2D(x)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: gap: %w", err)
			}
			x = x.Reshape(x.Shape[0], x.Shape[1])
		case opFlatten:
			n := x.Shape[0]
			x = x.Reshape(n, x.Len()/n)
		case opResidual:
			var body, short mpc.Share
			body, short, err = e.residual(op, x, widx)
			if err != nil {
				return mpc.Share{}, err
			}
			if trace {
				// The branch ops traced themselves; the residual's own
				// reading is only its Add.
				inShape = body.Shape
				opStart = time.Now()
			}
			x = p.Add(body, short)
		default:
			return mpc.Share{}, fmt.Errorf("pi: unknown op kind %d", op.kind)
		}
		if trace {
			kind, shape := traceOp(op, inShape)
			e.feed.Record(kind, shape, inShape[0], time.Since(opStart).Seconds())
		}
	}
	return x, nil
}

// residual runs a residual block's two branches on x and returns their
// outputs. When both branches start with a linear op (sharesHead), the
// two heads run first as one owner-side op under one activation mask —
// party 1 sends x's masked opening once, not once per branch — and each
// branch then runs the rest of its ops. The weight slots keep the
// depth-first program order either way: the shortcut head's is the one
// after the body's last.
func (e *Engine) residual(op *progOp, x mpc.Share, widx *int) (body, short mpc.Share, err error) {
	bodyOps := op.body.Ops
	var shortOps []progOp
	if op.shortcut != nil {
		shortOps = op.shortcut.Ops
	}
	body, short = x, x
	hoisted := op.sharesHead()
	if hoisted {
		var start time.Time
		if e.feed != nil {
			start = time.Now()
		}
		heads := []*progOp{&bodyOps[0], &shortOps[0]}
		ys, err := e.linear(x, heads, []int{*widx, *widx + op.body.NumSecretTensors()})
		if err != nil {
			return mpc.Share{}, mpc.Share{}, err
		}
		if e.feed != nil {
			e.traceHeads(heads, x.Shape, ys, time.Since(start).Seconds())
		}
		body, short = ys[0], ys[1]
		bodyOps, shortOps = bodyOps[1:], shortOps[1:]
		*widx++
	}
	if body, err = e.run(bodyOps, body, widx); err != nil {
		return mpc.Share{}, mpc.Share{}, err
	}
	if hoisted {
		*widx++
	}
	if short, err = e.run(shortOps, short, widx); err != nil {
		return mpc.Share{}, mpc.Share{}, err
	}
	return body, short, nil
}

// traceHeads reports a hoisted head pair's readings, one per op: the pair
// ran as one op in sec, which is split between them in proportion to
// their multiplies (output words times multiplies per output word).
func (e *Engine) traceHeads(heads []*progOp, inShape []int, ys []mpc.Share, sec float64) {
	work := make([]float64, len(heads))
	total := 0.0
	for i, h := range heads {
		// A weight tensor's leading dim is its output channels (features),
		// so its length over that is the multiplies per output word.
		work[i] = float64(ys[i].Len()) * float64(len(h.weights)/h.weightShape[0])
		total += work[i]
	}
	for i, h := range heads {
		kind, shape := traceOp(h, inShape)
		e.feed.Record(kind, shape, inShape[0], sec*work[i]/total)
	}
}

// linear runs the linear ops ops — one, or a residual's two heads — on
// the one input x under one activation mask (mpc.Party.LinearFixedW), op i
// with the weight in slot slots[i], and adds each op's bias.
func (e *Engine) linear(x mpc.Share, ops []*progOp, slots []int) ([]mpc.Share, error) {
	p := e.party
	fops := make([]mpc.FixedWOp, len(ops))
	for i, op := range ops {
		fops[i] = mpc.FixedWOp{W: e.weights[slots[i]], FW: e.fixedWs[slots[i]]}
		if op.kind == opLinear {
			// The In×Out transpose was materialized once at Setup.
			continue
		}
		if len(x.Shape) != 4 {
			return nil, fmt.Errorf("pi: %s expects NCHW input, got %v", op.name, x.Shape)
		}
		dims := mpc.ConvDims{
			N: x.Shape[0], InC: x.Shape[1], H: x.Shape[2], W: x.Shape[3],
			OutC: op.convSpec.OutC, KH: op.convSpec.KH, KW: op.convSpec.KW,
			Stride: op.convSpec.Stride, Pad: op.convSpec.Pad,
		}
		if op.kind == opDWConv {
			dims.Groups = dims.InC
			dims.OutC = dims.InC
		}
		fops[i].Conv = &dims
	}
	ys, err := p.LinearFixedW(x, fops...)
	if err != nil {
		return nil, fmt.Errorf("pi: %s: %w", ops[0].name, err)
	}
	for i, op := range ops {
		if op.kind == opLinear {
			ys[i], err = p.AddBiasVec(ys[i], op.bias)
		} else if op.bias != nil {
			ys[i], err = p.AddBias(ys[i], op.bias)
		}
		if err != nil {
			return nil, fmt.Errorf("pi: %s bias: %w", op.name, err)
		}
	}
	return ys, nil
}
