package mpc

import (
	"math/bits"
	"slices"
	"testing"
)

// TestComparisonFactorTables evaluates the comparison's owned tables on
// every index pair — 16² leaf digits, 8² top digits, 256² tree-node
// shares, and the narrow layout's 32² lowest digits and 512² root shares
// — the way ownedRound does (parity of each output's products of the two
// parties' operands, XOR both local bits), against truth tables written
// out here, and pins their product counts: the counts are the leaf's, the
// level's and the root's bits on the wire.
func TestComparisonFactorTables(t *testing.T) {
	// A node's plain index v holds child c's g at bit 2c and its e at bit
	// 2c+1, child 3 the most significant.
	g := func(v, c int) bool { return v>>(2*c)&1 == 1 }
	e := func(v, c int) bool { return v>>(2*c+1)&1 == 1 }
	nodeGtTruth := func(v int) bool {
		return g(v, 3) != (e(v, 3) && g(v, 2)) != (e(v, 3) && e(v, 2) && g(v, 1)) !=
			(e(v, 3) && e(v, 2) && e(v, 1) && g(v, 0))
	}
	nodeEqTruth := func(v int) bool { return e(v, 3) && e(v, 2) && e(v, 1) && e(v, 0) }
	// The narrow root's plain index holds child 0's g at bit 0 and child
	// c ≥ 1's g at bit 2c−1, its e at bit 2c; its gt is the XOR form over
	// five children, the lowest one's e never read.
	rg := func(v, c int) bool { return c == 0 && v&1 == 1 || c > 0 && v>>(2*c-1)&1 == 1 }
	re := func(v, c int) bool { return v>>(2*c)&1 == 1 }
	rootGtTruth := func(v int) bool {
		gt, above := false, true
		for c := 4; c >= 0; c-- {
			gt = gt != (above && rg(v, c))
			above = above && c > 0 && re(v, c)
		}
		return gt
	}
	for v := 0; v < 512; v++ {
		if v>>1&(v>>2)&0x55 != 0 {
			continue
		}
		lex, eq := false, true
		for c := 4; c >= 0 && eq && !lex; c-- {
			lex, eq = rg(v, c), c > 0 && re(v, c)
		}
		if rootGtTruth(v) != lex {
			t.Fatalf("narrow root truth at %#x: gt %v, lexicographic gt %v", v, rootGtTruth(v), lex)
		}
	}
	// On children that are (gt, eq) pairs — never both set — the XOR form
	// is the lexicographic comparison the tree needs.
	for v := 0; v < 256; v++ {
		if v&(v>>1)&0x55 != 0 {
			continue
		}
		lex, eq := false, true
		for c := 3; c >= 0 && eq && !lex; c-- {
			lex, eq = g(v, c), e(v, c)
		}
		if nodeGtTruth(v) != lex || nodeEqTruth(v) != (eq && !lex) {
			t.Fatalf("node truth at %#x: gt %v eq %v, lexicographic gt %v eq %v", v, nodeGtTruth(v), nodeEqTruth(v), lex, eq)
		}
	}

	for _, tc := range []struct {
		name  string
		fn    *ownedFn
		size  int
		k     []int
		truth []func(x, y int) bool
	}{
		{"leaf", leafFn, 16, []int{15, 14}, []func(x, y int) bool{
			func(u, t int) bool { return u > t }, func(u, t int) bool { return u == t }}},
		{"top digit", topFn, 8, []int{7, 6}, []func(x, y int) bool{
			func(u, t int) bool { return u > t }, func(u, t int) bool { return u == t }}},
		{"node", nodeFn, 256, []int{14, 14}, []func(x, y int) bool{
			func(x, y int) bool { return nodeGtTruth(x ^ y) }, func(x, y int) bool { return nodeEqTruth(x ^ y) }}},
		{"narrow lowest digit", lowFn, 32, []int{31}, []func(x, y int) bool{
			func(u, t int) bool { return u > t }}},
		{"narrow root", rootFn, 512, []int{30}, []func(x, y int) bool{
			func(x, y int) bool { return rootGtTruth(x ^ y) }}},
	} {
		if !slices.Equal(tc.fn.k, tc.k) {
			t.Errorf("%s: product counts %v, want %v", tc.name, tc.fn.k, tc.k)
			continue
		}
		if len(tc.fn.half[0]) != tc.size || len(tc.fn.half[1]) != tc.size {
			t.Errorf("%s: %d and %d entries, want %d", tc.name, len(tc.fn.half[0]), len(tc.fn.half[1]), tc.size)
			continue
		}
		width := tc.fn.width(len(tc.k))
		for id, half := range tc.fn.half {
			for i, en := range half {
				if en.op>>width != 0 || en.loc>>len(tc.k) != 0 {
					t.Errorf("%s: party %d entry %d = %+v sets bits past its %d operand bits or %d outputs", tc.name, id, i, en, width, len(tc.k))
				}
			}
		}
		bad := 0
		for x := 0; x < tc.size; x++ {
			for y := 0; y < tc.size; y++ {
				e0, e1 := tc.fn.half[0][x], tc.fn.half[1][y]
				prod := e0.op & e1.op
				for o, k := range tc.k {
					got := (bits.OnesCount32(prod&(1<<k-1))^int(e0.loc>>o^e1.loc>>o))&1 == 1
					prod >>= k
					if want := tc.truth[o](x, y); got != want && bad < 5 {
						bad++
						t.Errorf("%s output %d at (%d, %d) = %v, want %v", tc.name, o, x, y, got, want)
					}
				}
			}
		}
	}
}
