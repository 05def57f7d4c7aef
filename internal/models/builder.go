// Package models implements PASNet's backbone model zoo (paper Sec. IV):
// VGG-16, ResNet-18/34/50 and MobileNetV2, in CIFAR- and ImageNet-shaped
// variants. Each builder produces BOTH a trainable nn.Network (optionally
// channel-scaled so CPU training is fast) and the full-scale operator list
// the hardware latency model consumes, plus the activation/pooling "slots"
// that the hardware-aware NAS turns into gated operators (Sec. III-B).
package models

import (
	"fmt"
	"math"

	"pasnet/internal/hwmodel"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// ActChoice selects the nonlinearity at an activation slot.
type ActChoice int

// Activation choices. ActGated is resolved by the caller-supplied factory
// (the NAS supernet).
const (
	ActReLU ActChoice = iota
	ActX2
	// ActIdentity removes the nonlinearity entirely (used by the
	// SNL/DeepReDuce-style linearization baselines).
	ActIdentity
	// ActX2Frozen is a fixed (non-trainable) quadratic activation, the
	// DELPHI-style polynomial substitution.
	ActX2Frozen
)

// PoolChoice selects the operator at a pooling slot.
type PoolChoice int

// Pooling choices.
const (
	PoolMax PoolChoice = iota
	PoolAvg
)

// SlotKind distinguishes activation from pooling slots.
type SlotKind int

// Slot kinds.
const (
	SlotAct SlotKind = iota
	SlotPool
)

// Slot is one NAS choice point: an activation or pooling position with the
// full-scale geometry needed to look up candidate latencies.
type Slot struct {
	// ID is the slot index in creation order.
	ID int
	// Kind is SlotAct or SlotPool.
	Kind SlotKind
	// Shape is the operator geometry at latency (paper) scale.
	Shape hwmodel.OpShape
	// OpIdx is the index of the slot's operator in Model.Ops.
	OpIdx int
	// NxTrain is the per-sample feature-map element count at training
	// scale (the Nx of the X²act scaling).
	NxTrain int
}

// Config controls model construction.
type Config struct {
	// NumClasses is the classifier width.
	NumClasses int
	// InputHW and InputC describe the training input (square images).
	InputHW, InputC int
	// WidthMult scales channel counts for the trainable network
	// (latency-scale channels are never scaled).
	WidthMult float64
	// LatHW is the input resolution used for the latency op list
	// (32 for CIFAR-10 tables, 224 for ImageNet tables).
	LatHW int
	// ImageNetStem selects the 7×7/2 + maxpool ResNet stem and stride-2
	// first stages used at 224×224 (CIFAR variants use 3×3/1 stems).
	ImageNetStem bool
	// Act is the default activation at every act slot.
	Act ActChoice
	// ActAt optionally overrides the choice per slot ID.
	ActAt func(slot int) ActChoice
	// Pool is the default pooling at every pool slot.
	//
	// Only backbones with pool slots read Pool and PoolAt: VGG-16's
	// stages and the ImageNet ResNet stem (ImageNetStem). The CIFAR ResNet
	// stem (3×3/1) has no pool slot, so a CIFAR ResNet — the served demo
	// backbone among them — compiles to a program with no pooling op but
	// its closing global average pool, whatever these fields say.
	Pool PoolChoice
	// PoolAt optionally overrides the pooling per slot ID (see Pool).
	PoolAt func(slot int) PoolChoice
	// ActFactory, when set, constructs the activation layer for a slot
	// (used by the NAS supernet to insert gated operators). It overrides
	// Act/ActAt for network construction; the op list still records the
	// default choice.
	ActFactory func(s Slot, nxTrain int) nn.Layer
	// PoolFactory is the pooling analogue of ActFactory.
	PoolFactory func(s Slot, k, stride int) nn.Layer
	// OpsOnly skips nn construction entirely (latency tables at paper
	// scale without allocating weights).
	OpsOnly bool
	// TrainScaleOps records the op list (and slot shapes) at the trainable
	// network's scale — WidthMult-scaled channels at InputHW resolution —
	// instead of paper scale. Calibration uses this so LUT keys name the
	// geometry that actually executes under 2PC; it implies LatHW=InputHW.
	TrainScaleOps bool
	// Seed drives weight initialization.
	Seed uint64
}

// CIFARConfig returns the training-friendly CIFAR-10 configuration used by
// the search experiments: 32×32 inputs, scaled-down channels.
func CIFARConfig(widthMult float64, seed uint64) Config {
	return Config{
		NumClasses: 10,
		InputHW:    32,
		InputC:     3,
		WidthMult:  widthMult,
		LatHW:      32,
		Act:        ActReLU,
		Pool:       PoolMax,
		Seed:       seed,
	}
}

// ImageNetConfig returns the ops-only ImageNet-shape configuration used
// for the Table I latency/communication columns.
func ImageNetConfig() Config {
	return Config{
		NumClasses:   1000,
		InputHW:      224,
		InputC:       3,
		WidthMult:    1,
		LatHW:        224,
		ImageNetStem: true,
		Act:          ActReLU,
		Pool:         PoolMax,
		OpsOnly:      true,
	}
}

// Model bundles the trainable network with its hardware description.
type Model struct {
	// Name identifies the backbone and variant.
	Name string
	// Net is the trainable network (nil when Config.OpsOnly).
	Net *nn.Network
	// Ops is the operator list at latency scale, in execution order.
	Ops []hwmodel.NetOp
	// Slots are the NAS choice points.
	Slots []Slot
}

// ReLUCount returns the number of ReLU evaluations per inference at
// latency scale — the x-axis of the paper's Figs. 6-7.
func (m *Model) ReLUCount() int {
	n := 0
	for _, op := range m.Ops {
		if op.Kind == hwmodel.OpReLU {
			n += op.Shape.Elems()
		}
	}
	return n
}

// Cost returns the modelled private-inference cost of the whole network.
func (m *Model) Cost(cfg hwmodel.Config) hwmodel.Cost {
	return hwmodel.NetworkCost(cfg, m.Ops)
}

// builder accumulates layers, ops and slots while tracking the feature-map
// geometry at both training and latency scales.
type builder struct {
	cfg    Config
	r      *rng.RNG
	layers []nn.Layer
	ops    []hwmodel.NetOp
	slots  []Slot
	// Geometry at training scale.
	trainC, trainHW int
	// Geometry at the scale the op list records (paper scale, or training
	// scale under TrainScaleOps).
	latC, latHW int
	// fullC is the paper-scale channel count regardless of TrainScaleOps;
	// backbone topology decisions (projection shortcuts, expansion ratios)
	// always consult it so the architecture never depends on the scale the
	// op list happens to be recorded at.
	fullC    int
	nextSlot int
	nameSeq  int
}

func newBuilder(cfg Config) *builder {
	if cfg.WidthMult <= 0 {
		cfg.WidthMult = 1
	}
	if cfg.LatHW == 0 || cfg.TrainScaleOps {
		cfg.LatHW = cfg.InputHW
	}
	return &builder{
		cfg:     cfg,
		r:       rng.New(cfg.Seed + 0x9e37),
		trainC:  cfg.InputC,
		trainHW: cfg.InputHW,
		latC:    cfg.InputC,
		latHW:   cfg.LatHW,
		fullC:   cfg.InputC,
	}
}

// width scales a paper-scale channel count down for training.
func (b *builder) width(c int) int {
	if b.cfg.WidthMult >= 1 {
		return c
	}
	w := int(math.Round(float64(c) * b.cfg.WidthMult))
	if w < 1 {
		w = 1
	}
	return w
}

func (b *builder) name(prefix string) string {
	b.nameSeq++
	return fmt.Sprintf("%s%d", prefix, b.nameSeq)
}

// add appends a training-scale layer unless ops-only.
func (b *builder) add(l nn.Layer) {
	if !b.cfg.OpsOnly {
		b.layers = append(b.layers, l)
	}
}

// latOut maps a paper-scale channel count to the one the op list records:
// unchanged normally, width-scaled under TrainScaleOps. Every other op's
// geometry derives from latC, so scaling convs here keeps the whole list
// consistent with the trainable network.
func (b *builder) latOut(outFull int) int {
	if b.cfg.TrainScaleOps {
		return b.width(outFull)
	}
	return outFull
}

// conv appends Conv→BN (bias folded into BN), updating geometry.
func (b *builder) conv(outFull, k, stride, pad int) {
	name := b.name("conv")
	fo := (b.latHW+2*pad-k)/stride + 1
	outLat := b.latOut(outFull)
	b.ops = append(b.ops, hwmodel.NetOp{
		Name: name,
		Kind: hwmodel.OpConv,
		Shape: hwmodel.OpShape{
			FI: b.latHW, IC: b.latC, OC: outLat, K: k, Stride: stride, FO: fo,
		},
	})
	if !b.cfg.OpsOnly {
		outTrain := b.width(outFull)
		spec := tensor.ConvSpec{InC: b.trainC, OutC: outTrain, KH: k, KW: k, Stride: stride, Pad: pad}
		b.add(nn.NewConv2D(name, spec, false, b.r))
		b.add(nn.NewBatchNorm2D(name+".bn", outTrain))
		b.trainC = outTrain
		b.trainHW = (b.trainHW+2*pad-k)/stride + 1
	}
	b.latC = outLat
	b.latHW = fo
	b.fullC = outFull
}

// dwconv appends a depthwise Conv→BN.
func (b *builder) dwconv(k, stride, pad int) {
	name := b.name("dwconv")
	fo := (b.latHW+2*pad-k)/stride + 1
	b.ops = append(b.ops, hwmodel.NetOp{
		Name: name,
		Kind: hwmodel.OpConv,
		Shape: hwmodel.OpShape{
			FI: b.latHW, IC: b.latC, OC: b.latC, K: k, Stride: stride, FO: fo, Groups: b.latC,
		},
	})
	if !b.cfg.OpsOnly {
		b.add(nn.NewDepthwiseConv2D(name, b.trainC, k, stride, pad, b.r))
		b.add(nn.NewBatchNorm2D(name+".bn", b.trainC))
		b.trainHW = (b.trainHW+2*pad-k)/stride + 1
	}
	b.latHW = fo
}

// actChoice resolves the activation choice for a slot.
func (b *builder) actChoice(id int) ActChoice {
	if b.cfg.ActAt != nil {
		return b.cfg.ActAt(id)
	}
	return b.cfg.Act
}

// act appends an activation slot.
func (b *builder) act() {
	id := b.nextSlot
	b.nextSlot++
	choice := b.actChoice(id)
	kind := hwmodel.OpReLU
	switch choice {
	case ActX2, ActX2Frozen:
		kind = hwmodel.OpX2Act
	case ActIdentity:
		kind = hwmodel.OpIdentity
	}
	shape := hwmodel.OpShape{FI: b.latHW, IC: b.latC}
	opIdx := len(b.ops)
	b.ops = append(b.ops, hwmodel.NetOp{Name: b.name("act"), Kind: kind, Shape: shape})
	nx := b.trainC * b.trainHW * b.trainHW
	slot := Slot{ID: id, Kind: SlotAct, Shape: shape, OpIdx: opIdx, NxTrain: nx}
	b.slots = append(b.slots, slot)
	if b.cfg.OpsOnly {
		return
	}
	if b.cfg.ActFactory != nil {
		b.add(b.cfg.ActFactory(slot, nx))
		return
	}
	switch choice {
	case ActX2:
		b.add(nn.NewX2Act(fmt.Sprintf("x2act.s%d", id), nx))
	case ActX2Frozen:
		a := nn.NewX2Act(fmt.Sprintf("x2frozen.s%d", id), nx)
		a.W1.W.Data[0] = 0.3
		a.W2.W.Data[0] = 1
		a.Frozen = true
		b.add(a)
	case ActIdentity:
		b.add(nn.NewIdentity())
	default:
		b.add(nn.NewReLU())
	}
}

// poolChoice resolves the pooling choice for a slot.
func (b *builder) poolChoice(id int) PoolChoice {
	if b.cfg.PoolAt != nil {
		return b.cfg.PoolAt(id)
	}
	return b.cfg.Pool
}

// pool appends a pooling slot (max/avg gated in the supernet). A map
// smaller than the window (VGG-16's fifth 2×2 pool meets a 1×1 map at
// InputHW 16) pools over what is there: the slot stays in the search space
// at either scale, and no pool is emitted that its input cannot hold.
func (b *builder) pool(k, stride int) {
	id := b.nextSlot
	b.nextSlot++
	choice := b.poolChoice(id)
	kind := hwmodel.OpMaxPool
	if choice == PoolAvg {
		kind = hwmodel.OpAvgPool
	}
	kl := min(k, b.latHW)
	shape := hwmodel.OpShape{FI: b.latHW, IC: b.latC, K: kl, Stride: stride}
	opIdx := len(b.ops)
	b.ops = append(b.ops, hwmodel.NetOp{Name: b.name("pool"), Kind: kind, Shape: shape})
	slot := Slot{ID: id, Kind: SlotPool, Shape: shape, OpIdx: opIdx, NxTrain: b.trainC * b.trainHW * b.trainHW}
	b.slots = append(b.slots, slot)
	if !b.cfg.OpsOnly {
		kt := min(k, b.trainHW)
		if b.cfg.PoolFactory != nil {
			b.add(b.cfg.PoolFactory(slot, kt, stride))
		} else if choice == PoolAvg {
			b.add(nn.NewAvgPool(kt, kt, stride))
		} else {
			b.add(nn.NewMaxPool(kt, kt, stride))
		}
		b.trainHW = (b.trainHW-kt)/stride + 1
	}
	b.latHW = (b.latHW-kl)/stride + 1
}

// gap appends global average pooling, flattening to N×C.
func (b *builder) gap() {
	b.ops = append(b.ops, hwmodel.NetOp{
		Name:  b.name("gap"),
		Kind:  hwmodel.OpAvgPool,
		Shape: hwmodel.OpShape{FI: b.latHW, IC: b.latC, K: b.latHW, Stride: 1},
	})
	b.add(nn.NewGlobalAvgPool())
	if !b.cfg.OpsOnly {
		b.trainHW = 1
	}
	b.latHW = 1
}

// fc appends the classifier.
func (b *builder) fc() {
	inLat := b.latC * b.latHW * b.latHW
	b.ops = append(b.ops, hwmodel.NetOp{
		Name:  b.name("fc"),
		Kind:  hwmodel.OpFC,
		Shape: hwmodel.OpShape{IC: inLat, OC: b.cfg.NumClasses},
	})
	if !b.cfg.OpsOnly {
		in := b.trainC * b.trainHW * b.trainHW
		b.add(nn.NewLinear(b.name("linear"), in, b.cfg.NumClasses, b.r))
	}
}

// residualAdd records the elementwise addition op of a residual block.
func (b *builder) residualAdd() {
	b.ops = append(b.ops, hwmodel.NetOp{
		Name:  b.name("add"),
		Kind:  hwmodel.OpAdd,
		Shape: hwmodel.OpShape{FI: b.latHW, IC: b.latC},
	})
}

// finish assembles the Model.
func (b *builder) finish(name string) *Model {
	m := &Model{Name: name, Ops: b.ops, Slots: b.slots}
	if !b.cfg.OpsOnly {
		m.Net = nn.NewNetwork(nn.NewSequential(b.layers...))
	}
	return m
}

// subLayers runs fn against a scratch layer context and returns the layers
// it added, for residual body/shortcut construction. Ops recorded by fn
// stay in the shared op list.
func (b *builder) subLayers(fn func()) []nn.Layer {
	saved := b.layers
	b.layers = nil
	fn()
	got := b.layers
	b.layers = saved
	return got
}
