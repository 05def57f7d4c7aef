package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not equal the parent's continued stream.
	equal := true
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			equal = false
			break
		}
	}
	if equal {
		t.Fatal("split stream mirrors parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestFillers(t *testing.T) {
	r := New(17)
	u := make([]uint32, 64)
	r.FillUint32(u)
	allZero := true
	for _, v := range u {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("FillUint32 produced all zeros")
	}
	f := make([]float64, 64)
	r.FillNorm(f, 0.5)
}

// TestXoshiroKnownAnswer pins the generator to the xoshiro256** reference:
// from state {1, 2, 3, 4} the reference implementation's first ten outputs
// are these, through Uint64 and through FillUint64 alike.
func TestXoshiroKnownAnswer(t *testing.T) {
	want := []uint64{
		11520, 0, 1509978240, 1215971899390074240, 1216172134540287360,
		607988272756665600, 16172922978634559625, 8476171486693032832,
		10595114339597558777, 2904607092377533576,
	}
	r := &RNG{s: [4]uint64{1, 2, 3, 4}}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("Uint64 output %d = %d, want %d", i, got, w)
		}
	}
	got := make([]uint64, len(want))
	(&RNG{s: [4]uint64{1, 2, 3, 4}}).FillUint64(got)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("FillUint64 word %d = %d, want %d", i, got[i], w)
		}
	}
}

// TestFillUint64MatchesUint64 pins FillUint64 to len(dst) calls of Uint64
// for every length 0–129, and checks the generator continues from where
// the fill left it.
func TestFillUint64MatchesUint64(t *testing.T) {
	for n := 0; n <= 129; n++ {
		fill, step := New(uint64(n)+500), New(uint64(n)+500)
		fill.Uint64() // a fill starts from a state mid-stream, too
		step.Uint64()
		got := make([]uint64, n)
		fill.FillUint64(got)
		for i := range got {
			if w := step.Uint64(); got[i] != w {
				t.Fatalf("n=%d: word %d = %#x, want %#x", n, i, got[i], w)
			}
		}
		for i := 0; i < 3; i++ {
			if a, b := fill.Uint64(), step.Uint64(); a != b {
				t.Fatalf("n=%d: draw %d after the fill = %#x, want %#x", n, i, a, b)
			}
		}
	}
}

func TestMul128(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
