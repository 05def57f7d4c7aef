package mpc

// CorrelationSource supplies one party's halves of the offline-phase
// correlated randomness (Beaver triples and friends). Both implementations
// deal through a Stream: the live Dealer draws on demand inside the
// measured online path; the preprocessing store (internal/corr) replays
// material a Stream dealt ahead of time, which is the standard 2PC
// deployment split the paper's online latency numbers assume.
//
// Every method returns this party's additive (or XOR, for bits) halves.
// Implementations that can run dry or that validate geometry return a
// descriptive error; the Party op wraps it with protocol context and both
// parties fail symmetrically before any bytes hit the transport, so a
// misconfigured store surfaces as a clean error instead of a mid-protocol
// desync.
type CorrelationSource interface {
	// TakeHadamard returns this party's side of an owner-split selector
	// triple for n selects: party 1 gets a = [c1 ; r1] and a nil b, party
	// 0 b = [c0 ; r0] and a nil a — n packed bits c (tail clear, so
	// BitWords(n) words), then n ring words r — and z, 2n words, is an
	// additive share of [c1 ⊙ r0 ; c0 ⊙ r1]. Each party masks only its own
	// selector bits and operand with what it holds (see selectBits).
	TakeHadamard(n int) (a, b, z []uint64, err error)
	// TakeSquare returns shares (a, z) with z = a ⊙ a, each length n.
	TakeSquare(n int) (a, z []uint64, err error)
	// TakeMatMul returns shares of (A, B, Z=A@B) for A (m×k) and B (k×p).
	TakeMatMul(m, k, p int) (a, b, z []uint64, err error)
	// TakeConv returns shares of (A, B, Z=conv(A,B)) for the geometry.
	TakeConv(dims ConvDims) (a, b, z []uint64, err error)
	// TakeMatMulFixedB returns this party's side of (a, z) with z = a@b
	// against the session-pinned fixed mask b (k×p) for slot mask, where a
	// is a fresh m×k. The activation mask is one-sided: party 1 gets the
	// whole a, party 0 a nil a; z is additively shared as usual. Only a is
	// fresh per take — see fixedmask.go.
	TakeMatMulFixedB(mask, m, k, p int) (a, z []uint64, err error)
	// TakeConvFixedB returns this party's side of (a, z) with
	// z = conv(a, b) against the fixed kernel mask b for slot mask and the
	// given geometry; a is nil on party 0, as in TakeMatMulFixedB.
	TakeConvFixedB(mask int, dims ConvDims) (a, z []uint64, err error)
	// TakeMatMulFixedBShared returns this party's half of z = a@b against
	// the fixed mask b of slot mask, for the a the take right before it
	// handed out — which must have been a FixedB take whose a has m×k
	// words. It deals no a: one activation feeding two linear ops is
	// masked once, and the second op only needs its own product.
	TakeMatMulFixedBShared(mask, m, k, p int) (z []uint64, err error)
	// TakeConvFixedBShared is the convolution analogue of
	// TakeMatMulFixedBShared.
	TakeConvFixedBShared(mask int, dims ConvDims) (z []uint64, err error)
	// TakeBits returns this party's side of n owner-split AND triples
	// (c = a AND b bitwise), packed: party 1 gets the whole a, party 0 the
	// whole b, and the other operand comes back with N = n and no words;
	// c is XOR-shared. As in TakeHadamard, each party masks only its own
	// operand (see bitAnd).
	TakeBits(n int) (ta, tb, tc BitShare, err error)
}

// The Dealer is the always-fresh CorrelationSource: generation happens at
// consumption time, charged to whoever's clock is running.

// TakeHadamard implements CorrelationSource.
func (d *Dealer) TakeHadamard(n int) (a, b, z []uint64, err error) {
	a, b, z = d.half(d.s.Hadamard(n))
	return a, b, z, nil
}

// TakeSquare implements CorrelationSource.
func (d *Dealer) TakeSquare(n int) (a, z []uint64, err error) {
	a, _, z = d.half(d.s.Square(n))
	return a, z, nil
}

// TakeMatMul implements CorrelationSource.
func (d *Dealer) TakeMatMul(m, k, p int) (a, b, z []uint64, err error) {
	a, b, z = d.half(d.s.MatMul(m, k, p))
	return a, b, z, nil
}

// TakeConv implements CorrelationSource.
func (d *Dealer) TakeConv(dims ConvDims) (a, b, z []uint64, err error) {
	a, b, z = d.half(d.s.Conv(dims))
	return a, b, z, nil
}

// TakeMatMulFixedB implements CorrelationSource.
func (d *Dealer) TakeMatMulFixedB(mask, m, k, p int) (a, z []uint64, err error) {
	t, err := d.s.MatMulFixedB(mask, m, k, p)
	if err != nil {
		return nil, nil, err
	}
	a, _, z = d.half(t)
	return a, z, nil
}

// TakeConvFixedB implements CorrelationSource.
func (d *Dealer) TakeConvFixedB(mask int, dims ConvDims) (a, z []uint64, err error) {
	t, err := d.convFixedB(mask, dims, false)
	if err != nil {
		return nil, nil, err
	}
	a, _, z = d.half(t)
	return a, z, nil
}

// TakeMatMulFixedBShared implements CorrelationSource.
func (d *Dealer) TakeMatMulFixedBShared(mask, m, k, p int) (z []uint64, err error) {
	t, err := d.s.MatMulFixedBShared(mask, m, k, p)
	if err != nil {
		return nil, err
	}
	_, _, z = d.half(t)
	return z, nil
}

// TakeConvFixedBShared implements CorrelationSource.
func (d *Dealer) TakeConvFixedBShared(mask int, dims ConvDims) (z []uint64, err error) {
	t, err := d.convFixedB(mask, dims, true)
	if err != nil {
		return nil, err
	}
	_, _, z = d.half(t)
	return z, nil
}

// TakeBits implements CorrelationSource.
func (d *Dealer) TakeBits(n int) (ta, tb, tc BitShare, err error) {
	a, b, c := d.half(d.s.Bits(n))
	return BitShare{N: n, W: a}, BitShare{N: n, W: b}, BitShare{N: n, W: c}, nil
}
