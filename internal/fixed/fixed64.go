package fixed

// Word64Bits is the width of the executable-protocol ring Z_{2^64}.
//
// The paper runs its FPGA protocol in a 32-bit ring. Our executable 2PC
// layer uses a 64-bit ring instead so that SecureML-style local truncation
// of double-scaled products is numerically safe (wrap probability about
// |x|/2^(63-2f) instead of |x|/2^(31-2f)); CrypTen makes the same choice.
// The hardware latency/communication model in internal/hwmodel continues
// to charge the paper's 32-bit costs (see the header of
// internal/mpc/compare.go for how the comparison maps onto the wider ring).
const Word64Bits = 64

// DefaultFracBits64 is the default fractional precision in the 64-bit
// ring. 14 bits gives 2^-14 quantization with 49 magnitude bits of
// headroom; the SecureML local-truncation wrap probability per element is
// about |x|·2^(2f-63) = |x|·2^-35, small enough that a full network
// inference (~10^6 truncations) fails with probability well under 10^-3.
const DefaultFracBits64 = 14

// Codec64 converts between float64 and Z_{2^64} ring elements.
type Codec64 struct {
	// FracBits is the number of fractional bits f.
	FracBits uint
}

// NewCodec64 returns a 64-bit codec; f must be in [1, 56].
func NewCodec64(f uint) Codec64 {
	if f < 1 || f > 56 {
		panic("fixed: fractional bits out of range [1,56]")
	}
	return Codec64{FracBits: f}
}

// Default64 returns the codec used by the executable 2PC protocols.
func Default64() Codec64 { return Codec64{FracBits: DefaultFracBits64} }

// Scale returns 2^FracBits.
func (c Codec64) Scale() float64 { return float64(int64(1) << c.FracBits) }

// Encode converts a real value to its ring representation.
func (c Codec64) Encode(v float64) uint64 {
	scaled := v * c.Scale()
	if scaled >= 0 {
		scaled += 0.5
	} else {
		scaled -= 0.5
	}
	return uint64(int64(scaled))
}

// Decode converts a ring element back to a real value (signed interp).
func (c Codec64) Decode(x uint64) float64 {
	return float64(int64(x)) / c.Scale()
}

// EncodeSlice encodes a float slice into dst (allocated if nil).
func (c Codec64) EncodeSlice(vs []float64, dst []uint64) []uint64 {
	if dst == nil {
		dst = make([]uint64, len(vs))
	}
	for i, v := range vs {
		dst[i] = c.Encode(v)
	}
	return dst
}

// DecodeSlice decodes a ring slice into dst (allocated if nil).
func (c Codec64) DecodeSlice(xs []uint64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(xs))
	}
	for i, x := range xs {
		dst[i] = c.Decode(x)
	}
	return dst
}

// MulTrunc multiplies two encodings and rescales (plaintext reference for
// the 2PC multiply-then-truncate path).
func (c Codec64) MulTrunc(a, b uint64) uint64 {
	prod := int64(a) * int64(b) // wrapping, matching ring semantics
	return uint64(prod >> c.FracBits)
}

// Truncate arithmetically shifts a ring element right by FracBits.
func (c Codec64) Truncate(x uint64) uint64 {
	return uint64(int64(x) >> c.FracBits)
}

// MSB64 returns the most significant bit of x.
func MSB64(x uint64) uint64 { return x >> 63 }

// Low63 clears the most significant bit.
func Low63(x uint64) uint64 { return x &^ (1 << 63) }

// IsNeg64 reports whether x is negative in two's complement.
func IsNeg64(x uint64) bool { return x>>63 == 1 }
