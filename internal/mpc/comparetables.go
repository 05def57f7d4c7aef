package mpc

import "math/bits"

// ownedFn is a set of boolean functions T_o(x, y) of an index x that party
// 0 holds and an index y that party 1 holds, each written as
//
//	T_o(x, y) = α_o(x) ⊕ β_o(y) ⊕ ⊕ₖ A_ok(x) ∧ B_ok(y)
//
// and packed per party: party 0's entry at x carries every A_o(x) in one
// operand word and every α_o(x) as a local bit, party 1's entry at y every
// B_o(y) and β_o(y). One bitAnd of the two operands then leaves each party
// a product field whose k_o-bit parity, XORed with its local bit, is its
// XOR share of T_o (see ownedRound).
type ownedFn struct {
	// k[o] is output o's product count; its operand bits follow output
	// o−1's in every entry.
	k []int
	// half[id][i] is party id's entry at index i.
	half [2][]ownedEntry
}

// ownedEntry is one party's table entry at one index.
type ownedEntry struct {
	op  uint32 // the operands of every output, concatenated
	loc uint8  // bit o is output o's local bit
}

// width returns the operand bits of the first outs outputs.
func (f *ownedFn) width(outs int) int {
	w := 0
	for _, k := range f.k[:outs] {
		w += k
	}
	return w
}

// factorOwned builds the tables of fns over indices 0 … size−1 on both
// sides. Each output's stand-alone parts become the local bits —
// α(x) = T(x, 0) and β(y) = T(0, y) ⊕ T(0, 0) — which leaves the
// remainder R = T ⊕ α ⊕ β zero on row and column 0, and a rank
// factorization of R over GF(2) gives the products: A(x) is row x's
// coordinates on a basis of R's row space and B_k the k-th basis row.
// For a function of x ⊕ y (a tree node on XOR shares) this is the least
// product count any split into local bits can reach.
func factorOwned(size int, fns ...func(x, y int) bool) *ownedFn {
	f := &ownedFn{half: [2][]ownedEntry{make([]ownedEntry, size), make([]ownedEntry, size)}}
	off := 0
	for o, fn := range fns {
		t := func(x, y int) uint64 {
			if fn(x, y) {
				return 1
			}
			return 0
		}
		// col[x] = T(x, 0) and row[y] = T(0, y).
		col, row := make([]uint64, size), make([]uint64, size)
		for i := range col {
			col[i], row[i] = t(i, 0), t(0, i)
		}
		rows := make([][]uint64, size)
		for x := range rows {
			f.half[0][x].loc |= uint8(col[x]) << o
			f.half[1][x].loc |= uint8(row[x]^row[0]) << o
			rows[x] = make([]uint64, BitWords(size))
			for y := 0; y < size; y++ {
				rows[x][y>>6] |= (t(x, y) ^ col[x] ^ row[y] ^ row[0]) << (uint(y) & 63)
			}
		}
		coef, basis := rankFactor(rows)
		if off+len(basis) > 32 {
			panic("mpc: owned table operand exceeds 32 bits")
		}
		for x, c := range coef {
			f.half[0][x].op |= c << off
		}
		for k, b := range basis {
			for y := 0; y < size; y++ {
				f.half[1][y].op |= uint32(b[y>>6]>>(uint(y)&63)&1) << (off + k)
			}
		}
		f.k = append(f.k, len(basis))
		off += len(basis)
	}
	return f
}

// rankFactor writes the GF(2) matrix rows (row x a bit vector over y) as
// coef × basis: basis is a maximal independent subset of the rows, and
// row x is the XOR of the basis rows whose bits are set in coef[x].
func rankFactor(rows [][]uint64) (coef []uint32, basis [][]uint64) {
	// Each pivot is a reduced vector — the XOR of the basis rows in comb —
	// whose lowest set bit, col, no later pivot has.
	type pivot struct {
		v    []uint64
		comb uint32
		col  int
	}
	var pivots []pivot
	coef = make([]uint32, len(rows))
	for x, row := range rows {
		v := append([]uint64(nil), row...)
		var comb uint32
		for _, p := range pivots {
			if v[p.col>>6]>>(uint(p.col)&63)&1 == 1 {
				for i := range v {
					v[i] ^= p.v[i]
				}
				comb ^= p.comb
			}
		}
		col := -1
		for i, w := range v {
			if w != 0 {
				col = i*64 + bits.TrailingZeros64(w)
				break
			}
		}
		if col < 0 {
			coef[x] = comb
			continue
		}
		k := len(basis)
		if k == 32 {
			panic("mpc: owned table rank exceeds 32")
		}
		basis = append(basis, row)
		pivots = append(pivots, pivot{v, comb ^ 1<<k, col})
		coef[x] = 1 << k
	}
	return coef, basis
}
