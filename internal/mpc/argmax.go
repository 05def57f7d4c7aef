package mpc

import "fmt"

// ArgMax computes shares of the row-wise argmax of an N×D share: the
// private-inference endgame in which the client learns only the predicted
// class, not the logits. It runs the same batched comparison tournament
// as 2PC-MaxPool while obliviously routing index shares alongside values:
// each level is one DReLU and one select, so one exchange more than the
// comparison.
func (p *Party) ArgMax(x Share) (Share, error) {
	if len(x.Shape) != 2 {
		return Share{}, fmt.Errorf("mpc: argmax needs N×D share, got %v", x.Shape)
	}
	n, d := x.Shape[0], x.Shape[1]
	if d == 0 {
		return Share{}, fmt.Errorf("mpc: argmax over empty rows")
	}
	// cols[j] holds candidate j's value (and index) across all rows.
	vals := make([]Share, d)
	idxs := make([]Share, d)
	for j := 0; j < d; j++ {
		vals[j] = NewShare(n)
		idxs[j] = NewShare(n)
		for b := 0; b < n; b++ {
			vals[j].V[b] = x.V[b*d+j]
			if p.ID == 0 {
				idxs[j].V[b] = uint64(j) // public index, party 0 holds it
			}
		}
	}
	for len(vals) > 1 {
		half := len(vals) / 2
		nOut := n * half
		aV, bV := NewShare(nOut), NewShare(nOut)
		aI, bI := NewShare(nOut), NewShare(nOut)
		for i := 0; i < half; i++ {
			copy(aV.V[i*n:(i+1)*n], vals[2*i].V)
			copy(bV.V[i*n:(i+1)*n], vals[2*i+1].V)
			copy(aI.V[i*n:(i+1)*n], idxs[2*i].V)
			copy(bI.V[i*n:(i+1)*n], idxs[2*i+1].V)
		}
		diff := p.Sub(aV, bV)
		bits, err := p.DReLU(diff)
		if err != nil {
			return Share{}, fmt.Errorf("mpc: argmax: %w", err)
		}
		// One select of the concatenation [a−b ; idx(a)−idx(b)] on the
		// comparison bit, twice over, routes value and index together:
		// out = b + bit·(a−b).
		idxDiff := p.Sub(aI, bI)
		cat := NewShare(2 * nOut)
		copy(cat.V[:nOut], diff.V)
		copy(cat.V[nOut:], idxDiff.V)
		twice := NewBitShare(2 * nOut)
		for i := range nOut {
			bit := bits.Bit(i)
			twice.W[i>>6] |= bit << (uint(i) & 63)
			twice.W[(nOut+i)>>6] |= bit << (uint(nOut+i) & 63)
		}
		prod, err := p.selectBits(twice, cat)
		if err != nil {
			return Share{}, fmt.Errorf("mpc: argmax: %w", err)
		}
		nextVals := make([]Share, 0, half+len(vals)%2)
		nextIdxs := make([]Share, 0, half+len(vals)%2)
		for i := 0; i < half; i++ {
			v := NewShare(n)
			ix := NewShare(n)
			for b := 0; b < n; b++ {
				v.V[b] = bV.V[i*n+b] + prod.V[i*n+b]
				ix.V[b] = bI.V[i*n+b] + prod.V[nOut+i*n+b]
			}
			nextVals = append(nextVals, v)
			nextIdxs = append(nextIdxs, ix)
		}
		if len(vals)%2 == 1 {
			nextVals = append(nextVals, vals[len(vals)-1])
			nextIdxs = append(nextIdxs, idxs[len(idxs)-1])
		}
		vals, idxs = nextVals, nextIdxs
	}
	return idxs[0].Reshape(n), nil
}
