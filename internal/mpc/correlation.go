package mpc

// CorrelationSource supplies one party's halves of the offline-phase
// correlated randomness (Beaver triples and friends). The live Dealer
// implements it by generating on demand inside the measured online path;
// the preprocessing store (internal/corr) implements it by replaying
// material generated ahead of time, which is the standard 2PC deployment
// split the paper's online latency numbers assume.
//
// Every method returns this party's additive (or XOR, for bits) halves.
// Implementations that can run dry or that validate geometry return a
// descriptive error; the Party op wraps it with protocol context and both
// parties fail symmetrically before any bytes hit the transport, so a
// misconfigured store surfaces as a clean error instead of a mid-protocol
// desync.
type CorrelationSource interface {
	// TakeHadamard returns shares (a, b, z) with z = a ⊙ b, each length n.
	TakeHadamard(n int) (a, b, z []uint64, err error)
	// TakeSquare returns shares (a, z) with z = a ⊙ a, each length n.
	TakeSquare(n int) (a, z []uint64, err error)
	// TakeMatMul returns shares of (A, B, Z=A@B) for A (m×k) and B (k×p).
	TakeMatMul(m, k, p int) (a, b, z []uint64, err error)
	// TakeConv returns shares of (A, B, Z=conv(A,B)) for the geometry.
	TakeConv(dims ConvDims) (a, b, z []uint64, err error)
	// TakeMatMulFixedB returns shares (a, z) with z = a@b against the
	// session-pinned fixed mask b (k×p) for slot mask; a is a fresh m×k.
	// Only the activation mask is fresh per take — see fixedmask.go.
	TakeMatMulFixedB(mask, m, k, p int) (a, z []uint64, err error)
	// TakeConvFixedB returns shares (a, z) with z = conv(a, b) against the
	// fixed kernel mask b for slot mask and the given geometry.
	TakeConvFixedB(mask int, dims ConvDims) (a, z []uint64, err error)
	// TakeBits returns packed XOR shares of n AND triples (c = a AND b
	// bitwise).
	TakeBits(n int) (ta, tb, tc BitShare, err error)
}

// The Dealer is the always-fresh CorrelationSource: generation happens at
// consumption time, charged to whoever's clock is running.

// TakeHadamard implements CorrelationSource.
func (d *Dealer) TakeHadamard(n int) (a, b, z []uint64, err error) {
	a, b, z = d.HadamardTriple(n)
	return a, b, z, nil
}

// TakeSquare implements CorrelationSource.
func (d *Dealer) TakeSquare(n int) (a, z []uint64, err error) {
	a, z = d.SquarePair(n)
	return a, z, nil
}

// TakeMatMul implements CorrelationSource.
func (d *Dealer) TakeMatMul(m, k, p int) (a, b, z []uint64, err error) {
	a, b, z = d.MatMulTriple(m, k, p)
	return a, b, z, nil
}

// TakeConv implements CorrelationSource.
func (d *Dealer) TakeConv(dims ConvDims) (a, b, z []uint64, err error) {
	a, b, z = d.ConvTriple(dims)
	return a, b, z, nil
}

// TakeBits implements CorrelationSource.
func (d *Dealer) TakeBits(n int) (ta, tb, tc BitShare, err error) {
	ta, tb, tc = d.BitTriples(n)
	return ta, tb, tc, nil
}
