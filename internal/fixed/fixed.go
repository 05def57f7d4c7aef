// Package fixed implements fixed-point arithmetic over the ring Z_{2^64},
// the number system PASNet's 2PC protocols execute in (Codec64), plus the
// small demonstration rings of the paper's Fig. 2 (RingN).
//
// A real number v is encoded as round(v * 2^FracBits) reduced modulo 2^64
// and interpreted in two's complement. Addition and subtraction wrap
// naturally; multiplication of two encodings produces a value scaled by
// 2^(2*FracBits) and must be re-scaled with Truncate. The paper's FPGA
// protocol runs in a 32-bit ring (Sec. IV); Codec64's doc says why the
// executable protocols use 64 bits.
package fixed

// RingN provides modular arithmetic in Z_{2^bits} for small demonstration
// rings such as the 4-bit ring of the paper's Fig. 2.
type RingN struct {
	// Bits is the ring width; Mask is 2^Bits - 1.
	Bits uint
	Mask uint32
}

// NewRingN returns arithmetic helpers for Z_{2^bits}, 1 <= bits <= 32.
func NewRingN(bits uint) RingN {
	if bits < 1 || bits > 32 {
		panic("fixed: ring bits out of range [1,32]")
	}
	var mask uint32
	if bits == 32 {
		mask = ^uint32(0)
	} else {
		mask = (1 << bits) - 1
	}
	return RingN{Bits: bits, Mask: mask}
}

// Add returns a+b mod 2^Bits.
func (r RingN) Add(a, b uint32) uint32 { return (a + b) & r.Mask }

// Sub returns a-b mod 2^Bits.
func (r RingN) Sub(a, b uint32) uint32 { return (a - b) & r.Mask }

// Mul returns a*b mod 2^Bits.
func (r RingN) Mul(a, b uint32) uint32 { return (a * b) & r.Mask }

// Signed interprets x in two's complement within the small ring, returning
// a value in [-2^(Bits-1), 2^(Bits-1)).
func (r RingN) Signed(x uint32) int32 {
	x &= r.Mask
	half := uint32(1) << (r.Bits - 1)
	if x >= half {
		return int32(x) - int32(r.Mask) - 1
	}
	return int32(x)
}

// Encode reduces a (possibly negative) integer into the ring.
func (r RingN) Encode(v int32) uint32 { return uint32(v) & r.Mask }
