package kernel

import (
	"fmt"
	"slices"
	"testing"

	"pasnet/internal/rng"
)

// ringPassLengths are the share lengths the elementwise equivalence tests
// run: every length up to 67 (so every tail of up to seven words after
// zero to eight whole blocks, and a 32-word unrolled step and its tail),
// and one past twice the elementwise grain, which splits into parallel
// chunks that start mid-pattern.
func ringPassLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 2*elemGrain+13)
}

// onBothBodies runs fn on the Go body and, when the CPU has it, on the
// vector one, each over its own copy of dst, and reports both copies.
func onBothBodies(t *testing.T, dst []uint64, fn func(d []uint64)) (goBody, vec []uint64) {
	t.Helper()
	defer func(prev bool) { useRingVec = prev }(useRingVec)
	goBody, vec = slices.Clone(dst), slices.Clone(dst)
	useRingVec = false
	fn(goBody)
	useRingVec = true
	fn(vec)
	return goBody, vec
}

// sameWords fails t at the first word where got differs from want.
func sameWords(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d is %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

// requireRingVec skips t, with the reason logged, on a CPU without the
// vector ring passes.
func requireRingVec(t *testing.T) {
	t.Helper()
	if !hasRingVec {
		t.Skip("CPU lacks AVX-512 F/DQ/VL (or this is not amd64): the ring passes run the Go bodies only")
	}
}

// TestRingAddSubVectorMatchesGeneric pins the vector Add and Sub to the Go
// loops on every tested length, into a fresh destination and into one that
// aliases either input.
func TestRingAddSubVectorMatchesGeneric(t *testing.T) {
	requireRingVec(t)
	defer SetWorkers(SetWorkers(2))
	r := rng.New(60)
	for _, n := range ringPassLengths() {
		a, b, dst := fillWords(r, n), fillWords(r, n), fillWords(r, n)
		for _, op := range []struct {
			name string
			fn   func(dst, a, b []uint64)
			ref  func(x, y uint64) uint64
		}{
			{"Add", Add[uint64], func(x, y uint64) uint64 { return x + y }},
			{"Sub", Sub[uint64], func(x, y uint64) uint64 { return x - y }},
		} {
			want := make([]uint64, n)
			for i := range want {
				want[i] = op.ref(a[i], b[i])
			}
			for _, alias := range []string{"none", "a", "b"} {
				what := fmt.Sprintf("%s n=%d dst=%s", op.name, n, alias)
				goBody, vec := onBothBodies(t, dst, func(d []uint64) {
					x, y := slices.Clone(a), slices.Clone(b)
					switch alias {
					case "a":
						copy(d, x)
						x = d
					case "b":
						copy(d, y)
						y = d
					}
					op.fn(d, x, y)
				})
				sameWords(t, what+" (Go)", goBody, want)
				sameWords(t, what+" (vector)", vec, want)
			}
		}
	}
}

// truncWant is TruncAdd word by word, straight from its doc comment.
func truncWant(dst, z, bias []uint64, inner int, f uint, party int) []uint64 {
	want := make([]uint64, len(dst))
	for i := range want {
		v := dst[i] + z[i]
		if party == 1 {
			v = -uint64(int64(-v) >> f)
		} else {
			v = uint64(int64(v) >> f)
		}
		if len(bias) > 0 {
			v += bias[i/inner%len(bias)]
		}
		want[i] = v
	}
	return want
}

// TestTruncAddVectorMatchesGeneric pins the vector TruncAdd, and the Go
// body it falls back to, to the per-word formula: both parties' rounding
// at shifts 0, 1, 14, 62 and 63, no bias and bias patterns of 1, 4 and 64
// words per channel over 3 and 10 channels (a run shorter than, equal to
// and longer than a block, and patterns that wrap inside one), and z
// aliasing the destination.
func TestTruncAddVectorMatchesGeneric(t *testing.T) {
	requireRingVec(t)
	defer SetWorkers(SetWorkers(2))
	r := rng.New(61)
	for _, n := range ringPassLengths() {
		dst, z := fillWords(r, n), fillWords(r, n)
		for _, f := range []uint{0, 1, 14, 62, 63} {
			for party := 0; party < 2; party++ {
				for _, inner := range []int{0, 1, 4, 64} {
					for _, channels := range []int{3, 10} {
						var bias []uint64
						if inner > 0 {
							bias = fillWords(r, channels)
						} else if channels > 3 {
							continue
						}
						what := fmt.Sprintf("n=%d f=%d party=%d inner=%d channels=%d", n, f, party, inner, len(bias))
						want := truncWant(dst, z, bias, max(inner, 1), f, party)
						goBody, vec := onBothBodies(t, dst, func(d []uint64) { TruncAdd(d, z, bias, inner, f, party) })
						sameWords(t, what+" (Go)", goBody, want)
						sameWords(t, what+" (vector)", vec, want)
						if n <= 67 && inner == 4 {
							want := truncWant(dst, dst, bias, inner, f, party)
							goBody, vec := onBothBodies(t, dst, func(d []uint64) { TruncAdd(d, d, bias, inner, f, party) })
							sameWords(t, what+" z=dst (Go)", goBody, want)
							sameWords(t, what+" z=dst (vector)", vec, want)
						}
					}
				}
			}
		}
	}
}

// x2Want is X2Act word by word, straight from its doc comment.
func x2Want(mine, theirs, a, z, x []uint64, c1, c2, bias uint64, f uint, party int) []uint64 {
	trunc := func(v uint64) uint64 {
		if party == 1 {
			return -uint64(int64(-v) >> f)
		}
		return uint64(int64(v) >> f)
	}
	want := make([]uint64, len(x))
	for i := range want {
		e := mine[i] + theirs[i]
		s := z[i] + 2*e*a[i]
		if party == 1 {
			s += e * e
		}
		want[i] = trunc(c1*trunc(s)+c2*x[i]) + bias
	}
	return want
}

// TestX2ActVectorMatchesGeneric pins the vector X2Act, and its Go body, to
// the per-word formula: both parties at shifts 0, 1, 14, 62 and 63, with
// coefficients on the ring's edge words and a random one, into a fresh
// destination and into x itself.
func TestX2ActVectorMatchesGeneric(t *testing.T) {
	requireRingVec(t)
	defer SetWorkers(SetWorkers(2))
	r := rng.New(62)
	coeffs := [][3]uint64{{1 << 14, 3 << 12, 5}, {^uint64(0), 1 << 63, 0}, {r.Uint64(), r.Uint64(), r.Uint64()}}
	for _, n := range ringPassLengths() {
		mine, theirs, a, z, x := fillWords(r, n), fillWords(r, n), fillWords(r, n), fillWords(r, n), fillWords(r, n)
		dst := fillWords(r, n)
		for _, f := range []uint{0, 1, 14, 62, 63} {
			for party := 0; party < 2; party++ {
				for ci, c := range coeffs {
					what := fmt.Sprintf("n=%d f=%d party=%d coeffs=%d", n, f, party, ci)
					want := x2Want(mine, theirs, a, z, x, c[0], c[1], c[2], f, party)
					goBody, vec := onBothBodies(t, dst, func(d []uint64) {
						X2Act(d, mine, theirs, a, z, x, c[0], c[1], c[2], f, party)
					})
					sameWords(t, what+" (Go)", goBody, want)
					sameWords(t, what+" (vector)", vec, want)
					goBody, vec = onBothBodies(t, x, func(d []uint64) {
						X2Act(d, mine, theirs, a, z, d, c[0], c[1], c[2], f, party)
					})
					sameWords(t, what+" dst=x (Go)", goBody, want)
					sameWords(t, what+" dst=x (vector)", vec, want)
				}
			}
		}
	}
}

// TestRingPassesAllocateNothing pins that a share up to the elementwise
// grain runs each ring pass inline on either body: no chunk closure and no
// heap copy of its arguments, since the served path calls them several
// times per layer.
func TestRingPassesAllocateNothing(t *testing.T) {
	defer func(prev bool) { useRingVec = prev }(useRingVec)
	r := rng.New(64)
	n := elemGrain
	d, x, y, z, a, m := fillU64(r, n), fillU64(r, n), fillU64(r, n), fillU64(r, n), fillU64(r, n), fillU64(r, n)
	bias := fillU64(r, 8)
	for _, vec := range []bool{false, hasRingVec} {
		useRingVec = vec
		for _, p := range []struct {
			name string
			fn   func()
		}{
			{"Add", func() { Add(d, x, y) }},
			{"Sub", func() { Sub(d, x, y) }},
			{"TruncAdd", func() { TruncAdd(d, z, bias, 64, 14, 0) }},
			{"X2Act", func() { X2Act(d, m, y, a, z, x, 3, 5, 7, 14, 1) }},
		} {
			if allocs := testing.AllocsPerRun(20, p.fn); allocs != 0 {
				t.Errorf("%s (vector %v): %v allocations per call of %d words, want 0", p.name, vec, allocs, n)
			}
		}
	}
}

// BenchmarkRingElementwise compares the Go and vector bodies of each ring
// pass on one worker, in GB/s of share words read and written, at 512,
// 2048 and 4096 words — the share sizes of x2_k16_loop's 16-row flushes.
// TruncAdd runs party 0 with a 64-word-per-channel bias (an 8×8 map).
func BenchmarkRingElementwise(b *testing.B) {
	defer func(prev bool) { useRingVec = prev }(useRingVec)
	defer SetWorkers(SetWorkers(1))
	for _, n := range []int{512, 2048, 4096} {
		r := rng.New(63)
		d, x, y, z, a, m := fillU64(r, n), fillU64(r, n), fillU64(r, n), fillU64(r, n), fillU64(r, n), fillU64(r, n)
		bias := fillU64(r, max(1, n/64))
		for _, p := range []struct {
			name  string
			words int // share words moved per element
			fn    func()
		}{
			{"Add", 3, func() { Add(d, x, y) }},
			{"Sub", 3, func() { Sub(d, x, y) }},
			{"TruncAdd", 3, func() { TruncAdd(d, z, bias, 64, 14, 0) }},
			{"X2Act", 6, func() { X2Act(d, m, y, a, z, x, 3, 5, 7, 14, 1) }},
		} {
			for _, vec := range []bool{false, true} {
				body := "go"
				if vec {
					body = "avx512"
				}
				b.Run(fmt.Sprintf("%s/n%d/%s", p.name, n, body), func(b *testing.B) {
					if vec && !hasRingVec {
						b.Skip("CPU lacks AVX-512 F/DQ/VL")
					}
					useRingVec = vec
					for i := 0; i < b.N; i++ {
						p.fn()
					}
					b.ReportMetric(float64(8*p.words*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
				})
			}
		}
	}
}
