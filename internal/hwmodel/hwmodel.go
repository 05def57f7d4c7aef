// Package hwmodel implements PASNet's cryptographic hardware performance
// model (paper Sec. III-C): closed-form latency equations for the five 2PC
// operators — 2PC-Conv, 2PC-ReLU, 2PC-MaxPool, 2PC-AvgPool and 2PC-X²act —
// on a ZCU104-class FPGA pair connected over a LAN, plus the latency
// lookup table (LUT) consumed by the hardware-aware NAS and the
// energy/communication aggregation used by the evaluation tables.
//
// All equations follow the paper exactly, parameterized by Config. The
// default configuration (two ZCU104 boards, 1 GB/s network, 200 MHz,
// 32-bit ring, 16 × 2-bit comparison chunks) is calibrated so that the
// per-operator breakdown of the paper's Fig. 1 bottleneck reproduces
// within a few percent.
package hwmodel

import "fmt"

// OpKind identifies a 2PC DNN operator.
type OpKind int

// Operator kinds, matching Sec. III-C's inventory. Add covers residual
// additions (local, Eq. 1); FC is a fully-connected layer treated as a
// 1×1 convolution on a 1×1 feature map.
const (
	OpConv OpKind = iota
	OpReLU
	OpX2Act
	OpMaxPool
	OpAvgPool
	OpFC
	OpAdd
	// OpIdentity is a culled activation (SNL/DeepReDuce-style
	// linearization); it costs nothing under 2PC.
	OpIdentity
)

// String returns the operator name.
func (k OpKind) String() string {
	switch k {
	case OpConv:
		return "2PC-Conv"
	case OpReLU:
		return "2PC-ReLU"
	case OpX2Act:
		return "2PC-X2act"
	case OpMaxPool:
		return "2PC-MaxPool"
	case OpAvgPool:
		return "2PC-AvgPool"
	case OpFC:
		return "2PC-FC"
	case OpAdd:
		return "2PC-Add"
	case OpIdentity:
		return "Identity"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// OpShape carries the geometry the latency equations consume.
type OpShape struct {
	// FI is the input feature-map spatial size (square).
	FI int
	// IC is the input channel count.
	IC int
	// OC is the output channel count (conv/FC only).
	OC int
	// K is the kernel size (conv/pool only).
	K int
	// Stride is the spatial stride (conv/pool only).
	Stride int
	// FO is the output feature-map spatial size (conv only).
	FO int
	// Groups is the convolution group count (0 or 1 = dense; IC = OC =
	// Groups models a depthwise convolution).
	Groups int
}

// Elems returns the input element count FI² × IC, the N of Sec. III-C.
func (s OpShape) Elems() int { return s.FI * s.FI * s.IC }

// Config holds the hardware and network parameters of the model.
type Config struct {
	// FreqHz is the accelerator clock (paper: 200 MHz).
	FreqHz float64
	// PPCmp is the parallelism of the comparison engine.
	PPCmp float64
	// PPConv is the MAC parallelism of the convolution engine.
	PPConv float64
	// PPLin is the parallelism of the elementwise/pooling engine
	// (paper: 128-bit bus, four 32-bit lanes).
	PPLin float64
	// TbcSec is the per-message base communication latency T_bc.
	TbcSec float64
	// BandwidthBps is R_tbw in bits per second (1 GB/s = 8e9).
	BandwidthBps float64
	// RingBits is the protocol word width (paper: 32).
	RingBits int
	// Chunks is U, the number of comparison digits (paper: 16).
	Chunks int
	// TableSize is L, the OT table arity (paper: 4).
	TableSize int
	// SystemPowerKW is the total power of the two-board system, used for
	// the energy-efficiency columns (1/(ms·kW)).
	SystemPowerKW float64
}

// DefaultConfig returns the ZCU104 pair over 1 GB/s LAN used throughout
// the paper's evaluation. PPConv=1024 and PPCmp=40 calibrate the Fig. 1
// per-operator breakdown.
func DefaultConfig() Config {
	return Config{
		FreqHz:        200e6,
		PPCmp:         40,
		PPConv:        1024,
		PPLin:         4,
		TbcSec:        50e-6,
		BandwidthBps:  8e9, // 1 GB/s
		RingBits:      32,
		Chunks:        16,
		TableSize:     4,
		SystemPowerKW: 0.016, // two ZCU104 boards
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.FreqHz <= 0:
		return fmt.Errorf("hwmodel: FreqHz must be positive, got %v", c.FreqHz)
	case c.PPCmp <= 0 || c.PPConv <= 0 || c.PPLin <= 0:
		return fmt.Errorf("hwmodel: parallelism must be positive")
	case c.BandwidthBps <= 0:
		return fmt.Errorf("hwmodel: bandwidth must be positive")
	case c.RingBits <= 0 || c.Chunks <= 0 || c.TableSize <= 0:
		return fmt.Errorf("hwmodel: protocol constants must be positive")
	case c.TbcSec < 0:
		return fmt.Errorf("hwmodel: TbcSec must be non-negative")
	}
	return nil
}

// Cost is the modelled cost of one operator invocation. The JSON names
// are part of the serialized LUT artifact format (lutfile.go).
type Cost struct {
	// CompSec and CommSec split the latency into computation and
	// communication; TotalSec is their sum.
	CompSec  float64 `json:"comp_sec"`
	CommSec  float64 `json:"comm_sec"`
	TotalSec float64 `json:"total_sec"`
	// CommBits is the modelled traffic in bits (both directions).
	CommBits int64 `json:"comm_bits"`
	// Rounds is the number of communication messages charged.
	Rounds int `json:"rounds"`
}

func (c Cost) add(o Cost) Cost {
	return Cost{
		CompSec:  c.CompSec + o.CompSec,
		CommSec:  c.CommSec + o.CommSec,
		TotalSec: c.TotalSec + o.TotalSec,
		CommBits: c.CommBits + o.CommBits,
		Rounds:   c.Rounds + o.Rounds,
	}
}

// comm returns one message's cost: Tbc + bits/Rtbw.
func (c Config) comm(bits float64) (sec float64) {
	return c.TbcSec + bits/c.BandwidthBps
}

// otFlow returns the cost of one 2PC-OT comparison flow over N elements
// (paper Eq. 5-10): CMP2..4 + COMM1..4.
func (c Config) otFlow(n float64) Cost {
	w := float64(c.RingBits)  // 32
	u := float64(c.Chunks)    // 16
	l := float64(c.TableSize) // 4
	engine := c.PPCmp * c.FreqHz
	cmp2 := w * (u + 1) * n / engine         // Eq. 5: 32·17·N/(PP·f)
	cmp3 := w * ((u + 1) + l*u) * n / engine // Eq. 7: 32·(17+64)·N/(PP·f)
	cmp4 := (w*l*u + 1) * n / engine         // Eq. 9: (32·4·16+1)·N/(PP·f)
	comm1Bits := w                           // Eq.  : 32 bits mask share
	comm2Bits := w * u * n                   // Eq. 6: 32·16·N
	comm3Bits := w * l * u * n               // Eq. 8: 32·4·16·N
	comm4Bits := n                           // Eq. 10: N
	comm := c.comm(comm1Bits) + c.comm(comm2Bits) + c.comm(comm3Bits) + c.comm(comm4Bits)
	comp := cmp2 + cmp3 + cmp4
	return Cost{
		CompSec:  comp,
		CommSec:  comm,
		TotalSec: comp + comm,
		CommBits: int64(comm1Bits + comm2Bits + comm3Bits + comm4Bits),
		Rounds:   4,
	}
}

// ReLU returns the 2PC-ReLU cost (paper Eq. 11).
func (c Config) ReLU(s OpShape) Cost { return c.otFlow(float64(s.Elems())) }

// MaxPool returns the 2PC-MaxPool cost (paper Eq. 13): an OT flow over the
// input elements plus 3·Tbc for the reduction-tree rounds.
func (c Config) MaxPool(s OpShape) Cost {
	cost := c.otFlow(float64(s.Elems()))
	cost.CommSec += 3 * c.TbcSec
	cost.TotalSec += 3 * c.TbcSec
	cost.Rounds += 3
	return cost
}

// X2Act returns the 2PC-X²act cost (paper Eq. 14): one ciphertext square,
// CMP = 2N/(PP·f) and two COMM messages of 32·N bits.
func (c Config) X2Act(s OpShape) Cost {
	n := float64(s.Elems())
	comp := 2 * n / (c.PPLin * c.FreqHz)
	bits := float64(c.RingBits) * n
	comm := 2 * c.comm(bits)
	return Cost{
		CompSec:  comp,
		CommSec:  comm,
		TotalSec: comp + comm,
		CommBits: int64(2 * bits),
		Rounds:   2,
	}
}

// AvgPool returns the 2PC-AvgPool cost (paper Eq. 15): local addition and
// scaling only.
func (c Config) AvgPool(s OpShape) Cost {
	comp := 2 * float64(s.Elems()) / (c.PPLin * c.FreqHz)
	return Cost{CompSec: comp, TotalSec: comp}
}

// Conv returns the 2PC-Conv cost (paper Eq. 16): tiled-MAC computation
// CMP = 3·K²·FO²·IC·OC/(PP·f) plus two opening messages of 32·FI²·IC bits.
func (c Config) Conv(s OpShape) Cost {
	macs := 3 * float64(s.K*s.K) * float64(s.FO*s.FO) * float64(s.IC) * float64(s.OC)
	if s.Groups > 1 {
		macs /= float64(s.Groups)
	}
	comp := macs / (c.PPConv * c.FreqHz)
	bits := float64(c.RingBits) * float64(s.Elems())
	comm := 2 * c.comm(bits)
	return Cost{
		CompSec:  comp,
		CommSec:  comm,
		TotalSec: comp + comm,
		CommBits: int64(2 * bits),
		Rounds:   2,
	}
}

// FC returns the fully-connected cost: a 1×1 convolution on a 1×1 map.
func (c Config) FC(s OpShape) Cost {
	macs := 3 * float64(s.IC) * float64(s.OC)
	comp := macs / (c.PPConv * c.FreqHz)
	bits := float64(c.RingBits) * float64(s.IC)
	comm := 2 * c.comm(bits)
	return Cost{
		CompSec:  comp,
		CommSec:  comm,
		TotalSec: comp + comm,
		CommBits: int64(2 * bits),
		Rounds:   2,
	}
}

// Add returns the residual-addition cost: local elementwise addition on
// the wide vector engine (calibrated to Fig. 1's 0.1 ms Add1 row).
func (c Config) Add(s OpShape) Cost {
	comp := float64(s.Elems()) / (c.PPCmp * c.FreqHz)
	return Cost{CompSec: comp, TotalSec: comp}
}

// Op computes the cost of an arbitrary operator.
func (c Config) Op(kind OpKind, s OpShape) Cost {
	switch kind {
	case OpConv:
		return c.Conv(s)
	case OpReLU:
		return c.ReLU(s)
	case OpX2Act:
		return c.X2Act(s)
	case OpMaxPool:
		return c.MaxPool(s)
	case OpAvgPool:
		return c.AvgPool(s)
	case OpFC:
		return c.FC(s)
	case OpAdd:
		return c.Add(s)
	case OpIdentity:
		return Cost{}
	default:
		panic(fmt.Sprintf("hwmodel: unknown op kind %d", kind))
	}
}

// Efficiency returns the paper's energy-efficiency metric 1/(latency·kW)
// for a latency in the given unit seconds (pass 1e-3 for the per-ms
// variant used on CIFAR-10, 1 for the per-second ImageNet variant).
func (c Config) Efficiency(latencySec, unitSec float64) float64 {
	if latencySec <= 0 {
		return 0
	}
	return 1 / ((latencySec / unitSec) * c.SystemPowerKW)
}
