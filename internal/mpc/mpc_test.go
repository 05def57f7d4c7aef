package mpc

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/transport"
)

var testCodec = fixed.Default64()

// runBoth executes fn on two connected parties and fails the test on any
// error from either side.
func runBoth(t *testing.T, seed uint64, fn func(p *Party) error) {
	t.Helper()
	if err := RunProtocol(seed, testCodec, fn); err != nil {
		t.Fatal(err)
	}
}

// shareAndRun shares a float vector from party 0, runs op on the share,
// reveals the result on both parties, and checks it against want with the
// given tolerance.
func shareAndRun(t *testing.T, seed uint64, xs []float64, shape []int,
	op func(p *Party, x Share) (Share, error), want []float64, tol float64) {
	t.Helper()
	var mu sync.Mutex
	results := map[int][]float64{}
	runBoth(t, seed, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(0, enc, shape...)
		if err != nil {
			return err
		}
		y, err := op(p, x)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(y)
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.ID] = p.DecodeTensor(plain)
		mu.Unlock()
		return nil
	})
	for id, got := range results {
		if len(got) != len(want) {
			t.Fatalf("party %d: got %d values, want %d", id, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("party %d elem %d: got %v, want %v (tol %v)", id, i, got[i], want[i], tol)
			}
		}
	}
	if len(results) != 2 {
		t.Fatal("expected results from both parties")
	}
}

func TestShareRevealRoundTrip(t *testing.T) {
	xs := []float64{1.5, -2.25, 0, 3.75, -100.5}
	shareAndRun(t, 1, xs, []int{5},
		func(p *Party, x Share) (Share, error) { return x, nil },
		xs, 1e-3)
}

func TestShareInputFromParty1(t *testing.T) {
	xs := []float64{0.5, -0.5}
	runBoth(t, 2, func(p *Party) error {
		var enc []uint64
		if p.ID == 1 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(1, enc, 2)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(x)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range xs {
			if math.Abs(got[i]-xs[i]) > 1e-3 {
				t.Errorf("party %d: got %v want %v", p.ID, got, xs)
				break
			}
		}
		return nil
	})
}

func TestRevealTo(t *testing.T) {
	xs := []float64{7.5}
	runBoth(t, 3, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(0, enc, 1)
		if err != nil {
			return err
		}
		plain, err := p.RevealTo(1, x)
		if err != nil {
			return err
		}
		if p.ID == 1 {
			if got := p.DecodeTensor(plain); math.Abs(got[0]-7.5) > 1e-3 {
				t.Errorf("RevealTo got %v", got)
			}
		} else if plain != nil {
			t.Error("party 0 must not learn the value")
		}
		return nil
	})
}

func TestAddSubLinear(t *testing.T) {
	xs := []float64{1, -2, 3}
	// ((x + x) - x) * 2.5 + 1 == 2.5x + 1, all-local ops.
	shareAndRun(t, 4, xs, []int{3},
		func(p *Party, x Share) (Share, error) {
			sum := p.Add(x, x)
			d := p.Sub(sum, x) // == x
			sc := p.ScalePublic(d, 2.5)
			return p.AddPublic(sc, []uint64{p.Codec.Encode(1), p.Codec.Encode(1), p.Codec.Encode(1)}), nil
		},
		[]float64{1*2.5 + 1, -2*2.5 + 1, 3*2.5 + 1}, 1e-2)
}

func TestMulHadamard(t *testing.T) {
	xs := []float64{1.5, -2, 0.25, -0.125, 8}
	ys := []float64{2, 3, -4, 8, 0.5}
	var mu sync.Mutex
	results := map[int][]float64{}
	runBoth(t, 5, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
		}
		if p.ID == 1 {
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, 5)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(1, encY, 5)
		if err != nil {
			return err
		}
		z, err := p.MulHadamard(x, y)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(z)
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.ID] = p.DecodeTensor(plain)
		mu.Unlock()
		return nil
	})
	for id, got := range results {
		for i := range xs {
			want := xs[i] * ys[i]
			if math.Abs(got[i]-want) > 1e-2 {
				t.Fatalf("party %d elem %d: %v want %v", id, i, got[i], want)
			}
		}
	}
}

func TestMulHadamardRandomProperty(t *testing.T) {
	r := rng.New(77)
	const n = 128
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm() * 5
		ys[i] = r.Norm() * 5
	}
	runBoth(t, 6, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, n)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(0, encY, n)
		if err != nil {
			return err
		}
		z, err := p.MulHadamard(x, y)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(z)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range xs {
			if math.Abs(got[i]-xs[i]*ys[i]) > 0.05 {
				t.Errorf("elem %d: %v want %v", i, got[i], xs[i]*ys[i])
				return nil
			}
		}
		return nil
	})
}

func TestSquare(t *testing.T) {
	xs := []float64{0, 1, -1, 2.5, -3.5, 10}
	want := make([]float64, len(xs))
	for i, v := range xs {
		want[i] = v * v
	}
	shareAndRun(t, 7, xs, []int{len(xs)},
		func(p *Party, x Share) (Share, error) { return p.Square(x) },
		want, 0.05)
}

func TestMatMul(t *testing.T) {
	// x: 2x3, y: 3x2
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{0.5, -1, 2, 0.25, -0.5, 1}
	want := []float64{
		1*0.5 + 2*2 + 3*-0.5, 1*-1 + 2*0.25 + 3*1,
		4*0.5 + 5*2 + 6*-0.5, 4*-1 + 5*0.25 + 6*1,
	}
	runBoth(t, 8, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, 2, 3)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(0, encY, 3, 2)
		if err != nil {
			return err
		}
		z, err := p.MatMul(x, y)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(z)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("elem %d: %v want %v", i, got[i], want[i])
			}
		}
		return nil
	})
}

// openBits reveals XOR-shared bits to both parties.
func openBits(p *Party, b BitShare) (BitShare, error) {
	theirs, err := transport.Exchange(p.Conn, b.W)
	if err != nil {
		return BitShare{}, err
	}
	out := NewBitShare(b.N)
	for i := range out.W {
		out.W[i] = b.W[i] ^ theirs[i]
	}
	return out, nil
}

// tailClear reports whether the bits past N in the last word are zero.
func tailClear(b BitShare) bool {
	r := uint(b.N) & 63
	return r == 0 || b.W[len(b.W)-1]>>r == 0
}

// checkDReLU runs DReLU on explicit share pairs (pairs[i][id] is party
// id's share of element i) and checks every revealed bit against the sign
// of the reconstructed value, plus the canonical zero tail of each
// party's own output share.
func checkDReLU(t *testing.T, seed uint64, pairs [][2]uint64) {
	t.Helper()
	runBoth(t, seed, func(p *Party) error {
		x := NewShare(len(pairs))
		for i, pr := range pairs {
			x.V[i] = pr[p.ID]
		}
		bits, err := p.DReLU(x)
		if err != nil {
			return err
		}
		if bits.N != len(pairs) || len(bits.W) != BitWords(len(pairs)) || !tailClear(bits) {
			t.Errorf("party %d: drelu share has N=%d, %d words, tail clear=%v for %d elements",
				p.ID, bits.N, len(bits.W), tailClear(bits), len(pairs))
			return nil
		}
		plain, err := openBits(p, bits)
		if err != nil {
			return err
		}
		for i, pr := range pairs {
			want := uint64(0)
			if int64(pr[0]+pr[1]) >= 0 {
				want = 1
			}
			if got := plain.Bit(i); got != want {
				t.Errorf("party %d: drelu(%#x + %#x) = %d, want %d", p.ID, pr[0], pr[1], got, want)
				return nil
			}
		}
		return nil
	})
}

func TestDReLUCorrectness(t *testing.T) {
	t.Run("encoded-values", func(t *testing.T) {
		// Adversarial values around zero plus randoms, through ShareInput.
		xs := []float64{0, 0.001, -0.001, 1, -1, 100.25, -100.25, 1e4, -1e4, 0.5, -0.5}
		r := rng.New(123)
		for i := 0; i < 64; i++ {
			xs = append(xs, r.Norm()*1000)
		}
		runBoth(t, 9, func(p *Party) error {
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(0, enc, len(xs))
			if err != nil {
				return err
			}
			bits, err := p.DReLU(x)
			if err != nil {
				return err
			}
			plain, err := openBits(p, bits)
			if err != nil {
				return err
			}
			for i := range xs {
				want := uint64(0)
				if xs[i] >= 0 {
					want = 1
				}
				if got := plain.Bit(i); got != want {
					t.Errorf("party %d: drelu(%v) = %d, want %d", p.ID, xs[i], got, want)
					return nil
				}
			}
			return nil
		})
	})

	t.Run("ring-extremes", func(t *testing.T) {
		// 0, ±1, MinInt64 and MaxInt64, each split trivially both ways and
		// against random masks.
		r := rng.New(124)
		var pairs [][2]uint64
		for _, v := range []uint64{0, 1, ^uint64(0), 1 << 63, 1<<63 - 1} {
			pairs = append(pairs, [2]uint64{v, 0}, [2]uint64{0, v})
			for i := 0; i < 8; i++ {
				m := r.Uint64()
				pairs = append(pairs, [2]uint64{m, v - m})
			}
		}
		checkDReLU(t, 90, pairs)
	})

	t.Run("carry-across-digits", func(t *testing.T) {
		// low63(x0) = 2^(4k) − 1 plus low63(x1) = 1 carries out of every
		// digit below boundary k and no further; k = 16 would be the ring's
		// own msb, covered by 2^63 − 1 + 1 = MinInt64. Each pattern runs
		// under all four msb assignments.
		var pairs [][2]uint64
		for k := 1; k < NumChunks; k++ {
			for msb := uint64(0); msb < 4; msb++ {
				pairs = append(pairs, [2]uint64{1<<(ChunkBits*k) - 1 | msb&1<<63, 1 | msb>>1<<63})
			}
		}
		for msb := uint64(0); msb < 4; msb++ {
			pairs = append(pairs, [2]uint64{1<<63 - 1 | msb&1<<63, 1 | msb>>1<<63})
		}
		checkDReLU(t, 91, pairs)
	})

	t.Run("decided-at-each-digit", func(t *testing.T) {
		// The millionaires' inputs u (party 0) and t (party 1) agree on every
		// digit except digit k, which decides the comparison either way: the
		// eq chain runs through all more significant digits. u = t keeps all
		// 16 digits equal (carry = 0 through a full eq chain).
		r := rng.New(125)
		var pairs [][2]uint64
		add := func(u, tt uint64) {
			for msb := uint64(0); msb < 4; msb++ {
				pairs = append(pairs, [2]uint64{u | msb&1<<63, (1<<63 - 1 - tt) | msb>>1<<63})
			}
		}
		for k := 0; k < NumChunks; k++ {
			for rep := 0; rep < 4; rep++ {
				tt := r.Uint64() >> 1
				// Put digit k strictly inside its range (the top digit has 3
				// bits) so ±1 in it touches no other digit.
				tt = tt&^(0xf<<(ChunkBits*k)) | (1+r.Uint64()%6)<<(ChunkBits*k)
				add(tt+1<<(ChunkBits*k), tt)
				add(tt-1<<(ChunkBits*k), tt)
				add(tt, tt)
			}
		}
		checkDReLU(t, 92, pairs)
	})

	t.Run("element-counts", func(t *testing.T) {
		// Counts on, off and around a word boundary, and the relu_k1_lan
		// program's 2176: every packed level ends mid-word somewhere.
		r := rng.New(126)
		for _, n := range []int{1, 63, 64, 65, 2176} {
			pairs := make([][2]uint64, n)
			for i := range pairs {
				x0 := r.Uint64()
				switch i % 3 {
				case 0: // full-range value
					pairs[i] = [2]uint64{x0, r.Uint64()}
				case 1: // tiny magnitude either side of zero
					pairs[i] = [2]uint64{x0, uint64(int64(r.Uint64()%7)-3) - x0}
				default: // fixed-point activations
					pairs[i] = [2]uint64{x0, testCodec.Encode(r.Norm()*4) - x0}
				}
			}
			checkDReLU(t, uint64(93+n), pairs)
		}
	})
}

func TestReLU(t *testing.T) {
	xs := []float64{-3, -0.5, 0, 0.5, 3, -100, 100, 0.001, -0.001}
	want := make([]float64, len(xs))
	for i, v := range xs {
		want[i] = math.Max(v, 0)
	}
	shareAndRun(t, 10, xs, []int{len(xs)},
		func(p *Party, x Share) (Share, error) { return p.ReLU(x) },
		want, 1e-2)
}

func TestReLURandomProperty(t *testing.T) {
	r := rng.New(31)
	const n = 200
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm() * 50
	}
	want := make([]float64, n)
	for i, v := range xs {
		want[i] = math.Max(v, 0)
	}
	shareAndRun(t, 11, xs, []int{n},
		func(p *Party, x Share) (Share, error) { return p.ReLU(x) },
		want, 1e-2)
}

// TestReLUWirePin pins ReLU's wire cost frame- and byte-exactly: six
// exchanges — the leaf bitAnd, four tree bitAnds, the select — and the
// closed-form packed payload. A change that re-adds a hop or unpacks the
// bits fails here, not only in the benchmark.
func TestReLUWirePin(t *testing.T) {
	for _, n := range []int{1, 64, 100, 2176} {
		// One direction: every bitAnd opens two packed operands, the select
		// two 2n-word vectors.
		words := 4 * n
		for _, ands := range []int{NumChunks * leafANDs, 16, 8, 4, 2} {
			words += 2 * BitWords(n*ands)
		}
		if n == 64 && 2*8*words != 327*n {
			t.Fatalf("closed form gives %d B/element on whole words, documented as 327", 2*8*words/n)
		}
		r := rng.New(uint64(n))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm()
		}
		runBoth(t, uint64(40+n), func(p *Party) error {
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(xs)
			}
			x, err := p.ShareInput(0, enc, n)
			if err != nil {
				return err
			}
			wire := obs.InstrumentConn(p.Conn, nil)
			p.Conn = wire
			if _, err := p.ReLU(x); err != nil {
				return err
			}
			got := wire.Totals()
			want := obs.WireTotals{SentBytes: int64(8 * words), SentFrames: 6, RecvBytes: int64(8 * words), RecvFrames: 6}
			if got != want {
				t.Errorf("party %d, %d elements: ReLU moved %+v, want %+v", p.ID, n, got, want)
			}
			return nil
		})
	}
}

func TestMaxPool(t *testing.T) {
	// 1x1x4x4 image, 2x2/2 pooling.
	xs := []float64{
		1, -2, 3, 4,
		5, 6, -7, 8,
		-9, 10, 11, 12,
		13, 14, -15, 16,
	}
	want := []float64{6, 8, 14, 16}
	shareAndRun(t, 12, xs, []int{1, 1, 4, 4},
		func(p *Party, x Share) (Share, error) { return p.MaxPool2D(x, 2, 2, 2) },
		want, 1e-2)
}

func TestMaxPool3x3(t *testing.T) {
	// Odd window exercises the tournament's carry path.
	r := rng.New(55)
	xs := make([]float64, 2*6*6)
	for i := range xs {
		xs[i] = r.Norm() * 10
	}
	// Plaintext reference.
	want := make([]float64, 0, 2*2*2)
	for c := 0; c < 2; c++ {
		for oy := 0; oy < 2; oy++ {
			for ox := 0; ox < 2; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						v := xs[c*36+(oy*3+ky)*6+ox*3+kx]
						if v > best {
							best = v
						}
					}
				}
				want = append(want, best)
			}
		}
	}
	shareAndRun(t, 13, xs, []int{1, 2, 6, 6},
		func(p *Party, x Share) (Share, error) { return p.MaxPool2D(x, 3, 3, 3) },
		want, 1e-2)
}

func TestAvgPool(t *testing.T) {
	xs := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	want := []float64{3.5, 5.5, 11.5, 13.5}
	shareAndRun(t, 14, xs, []int{1, 1, 4, 4},
		func(p *Party, x Share) (Share, error) { return p.AvgPool2D(x, 2, 2, 2) },
		want, 1e-2)
}

// A pool window larger than the map is rejected before any share moves
// (Go's truncating (1-2)/2+1 would otherwise report one output position
// and index past the map), on both parties alike.
func TestPoolWindowLargerThanMap(t *testing.T) {
	runBoth(t, 17, func(p *Party) error {
		x := NewShare(1, 4, 1, 1)
		_, errMax := p.MaxPool2D(x, 2, 2, 2)
		_, errAvg := p.AvgPool2D(x, 2, 2, 2)
		for name, err := range map[string]error{"maxpool": errMax, "avgpool": errAvg} {
			if err == nil || !strings.Contains(err.Error(), "window 2x2 exceeds 1x1 feature map") {
				t.Errorf("party %d %s: error %v does not describe the window/map mismatch", p.ID, name, err)
			}
		}
		return nil
	})
}

func TestGlobalAvgPool(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	want := []float64{2.5, 25}
	shareAndRun(t, 15, xs, []int{1, 2, 2, 2},
		func(p *Party, x Share) (Share, error) { return p.GlobalAvgPool2D(x) },
		want, 1e-2)
}

func TestX2Act(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 0.5}
	prm := X2ActParams{W1: 0.25, W2: 1, B: 0.1, Scale: 0.8}
	want := make([]float64, len(xs))
	for i, v := range xs {
		want[i] = prm.Scale * (prm.W1*v*v + prm.W2*v + prm.B)
	}
	shareAndRun(t, 16, xs, []int{len(xs)},
		func(p *Party, x Share) (Share, error) { return p.X2Act(x, prm) },
		want, 0.05)
}

func TestConv2D(t *testing.T) {
	r := rng.New(71)
	dims := ConvDims{N: 1, InC: 2, H: 5, W: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	xs := make([]float64, dims.InLen())
	ws := make([]float64, dims.KLen())
	for i := range xs {
		xs[i] = r.Norm()
	}
	for i := range ws {
		ws[i] = r.Norm() * 0.5
	}
	// Plaintext reference conv.
	want := plainConvRef(xs, ws, dims)
	runBoth(t, 17, func(p *Party) error {
		var encX, encW []uint64
		if p.ID == 1 {
			encX = p.EncodeTensor(xs)
		}
		if p.ID == 0 {
			encW = p.EncodeTensor(ws)
		}
		x, err := p.ShareInput(1, encX, dims.N, dims.InC, dims.H, dims.W)
		if err != nil {
			return err
		}
		w, err := p.ShareInput(0, encW, dims.OutC, dims.InC, dims.KH, dims.KW)
		if err != nil {
			return err
		}
		y, err := p.Conv2D(x, w, dims)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(y)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("conv elem %d: %v want %v", i, got[i], want[i])
				return nil
			}
		}
		return nil
	})
}

// plainConvRef is a float reference convolution for test comparison.
func plainConvRef(x, k []float64, d ConvDims) []float64 {
	oh, ow := d.OutHW()
	out := make([]float64, d.N*d.OutC*oh*ow)
	oi := 0
	for b := 0; b < d.N; b++ {
		for oc := 0; oc < d.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := 0.0
					for ic := 0; ic < d.InC; ic++ {
						for ky := 0; ky < d.KH; ky++ {
							iy := oy*d.Stride + ky - d.Pad
							if iy < 0 || iy >= d.H {
								continue
							}
							for kx := 0; kx < d.KW; kx++ {
								ix := ox*d.Stride + kx - d.Pad
								if ix < 0 || ix >= d.W {
									continue
								}
								sum += x[(b*d.InC+ic)*d.H*d.W+iy*d.W+ix] * k[((oc*d.InC+ic)*d.KH+ky)*d.KW+kx]
							}
						}
					}
					out[oi] = sum
					oi++
				}
			}
		}
	}
	return out
}

func TestBitAndTruthTable(t *testing.T) {
	// 130 bits: two full words and a 2-bit tail. Bit i takes the (a, b)
	// combination i%4, XOR-shared three ways in turn: all at party 0, all
	// at party 1, or split by a mask both parties derive.
	const n = 130
	plainA, plainB := NewBitShare(n), NewBitShare(n)
	mask := DrawBits(rng.New(18), n)
	for i := 0; i < n; i++ {
		plainA.W[i>>6] |= uint64(i&1) << (uint(i) & 63)
		plainB.W[i>>6] |= uint64(i>>1&1) << (uint(i) & 63)
	}
	share := func(id int, plain BitShare) BitShare {
		out := NewBitShare(n)
		for i := 0; i < n; i++ {
			bit := plain.Bit(i)
			switch i / 4 % 3 {
			case 0:
				bit *= uint64(1 - id)
			case 1:
				bit *= uint64(id)
			default:
				bit = bit*uint64(id) ^ mask.Bit(i)
			}
			out.W[i>>6] |= bit << (uint(i) & 63)
		}
		return out
	}
	runBoth(t, 18, func(p *Party) error {
		c, err := p.bitAnd(share(p.ID, plainA), share(p.ID, plainB))
		if err != nil {
			return err
		}
		if c.N != n || len(c.W) != BitWords(n) || !tailClear(c) {
			t.Errorf("party %d: product share N=%d, %d words, tail clear=%v", p.ID, c.N, len(c.W), tailClear(c))
		}
		plain, err := openBits(p, c)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if got, want := plain.Bit(i), plainA.Bit(i)&plainB.Bit(i); got != want {
				t.Errorf("bit %d: AND(%d,%d) = %d", i, plainA.Bit(i), plainB.Bit(i), got)
			}
		}
		return nil
	})
}

// shareTestBits XOR-shares plain between the parties: party 1 holds the
// alternating mask 0101…, party 0 plain ⊕ mask.
func shareTestBits(id int, plain []uint64) BitShare {
	bits := NewBitShare(len(plain))
	for i, b := range plain {
		mask := uint64(i) & 1
		if id == 0 {
			mask ^= b
		}
		bits.W[i>>6] |= mask << (uint(i) & 63)
	}
	return bits
}

func TestB2A(t *testing.T) {
	plain := []uint64{0, 1, 1, 0, 1}
	runBoth(t, 19, func(p *Party) error {
		ar, err := p.B2A(shareTestBits(p.ID, plain), len(plain))
		if err != nil {
			return err
		}
		vals, err := p.Reveal(ar)
		if err != nil {
			return err
		}
		for i, b := range plain {
			if vals[i] != b {
				t.Errorf("B2A bit %d: got %d want %d", i, vals[i], b)
			}
		}
		return nil
	})
}

// TestSelectMatchesB2AProduct pins the one-round select against the
// two-round construction it replaced: on the same selector bits and the
// same value shares, B2A followed by MulHadamardRaw reveals exactly what
// selectBits reveals (both are exact integer arithmetic in the ring).
func TestSelectMatchesB2AProduct(t *testing.T) {
	r := rng.New(23)
	const n = 67
	plain := make([]uint64, n)
	pairs := make([][2]uint64, n)
	for i := range plain {
		plain[i] = r.Uint64() & 1
		pairs[i] = [2]uint64{r.Uint64(), r.Uint64()}
	}
	runBoth(t, 23, func(p *Party) error {
		bits := shareTestBits(p.ID, plain)
		x := NewShare(n)
		for i, pr := range pairs {
			x.V[i] = pr[p.ID]
		}
		sel, err := p.selectBits(bits, x)
		if err != nil {
			return err
		}
		ba, err := p.B2A(bits, n)
		if err != nil {
			return err
		}
		ref, err := p.MulHadamardRaw(ba, x)
		if err != nil {
			return err
		}
		got, err := p.Reveal(sel)
		if err != nil {
			return err
		}
		want, err := p.Reveal(ref)
		if err != nil {
			return err
		}
		for i := range want {
			if got[i] != want[i] || want[i] != plain[i]*(pairs[i][0]+pairs[i][1]) {
				t.Errorf("party %d elem %d: select %#x, b2a·x %#x, bit %d", p.ID, i, got[i], want[i], plain[i])
				return nil
			}
		}
		return nil
	})
}

func TestCompareGE(t *testing.T) {
	xs := []float64{1, 2, 3, -4}
	ys := []float64{1, 5, -3, -4}
	runBoth(t, 20, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, 4)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(0, encY, 4)
		if err != nil {
			return err
		}
		bits, err := p.Compare(x, y)
		if err != nil {
			return err
		}
		plain, err := openBits(p, bits)
		if err != nil {
			return err
		}
		want := []uint64{1, 0, 1, 1}
		for i := range want {
			if got := plain.Bit(i); got != want[i] {
				t.Errorf("compare %v >= %v: got %d want %d", xs[i], ys[i], got, want[i])
			}
		}
		return nil
	})
}

func TestTruncationErrorBound(t *testing.T) {
	// Property: local truncation of a fixed-point product introduces at
	// most ~1 ULP of error for values away from the ring boundary.
	r := rng.New(91)
	const n = 256
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm() * 100
	}
	shareAndRun(t, 21, xs, []int{n},
		func(p *Party, x Share) (Share, error) {
			return p.ScalePublic(x, 1.0), nil // multiply by one, trunc once
		},
		xs, 3.0/testCodec.Scale())
}

func TestDealerDeterminism(t *testing.T) {
	d0 := NewDealer(42, 0)
	d1 := NewDealer(42, 1)
	a0, b0, z0 := d0.HadamardTriple(16)
	a1, b1, z1 := d1.HadamardTriple(16)
	for i := 0; i < 16; i++ {
		a := a0[i] + a1[i]
		b := b0[i] + b1[i]
		z := z0[i] + z1[i]
		if z != a*b {
			t.Fatalf("triple %d: z=%d a*b=%d", i, z, a*b)
		}
	}
	// Square pairs.
	sa0, sz0 := d0.SquarePair(8)
	sa1, sz1 := d1.SquarePair(8)
	for i := 0; i < 8; i++ {
		a := sa0[i] + sa1[i]
		if sz0[i]+sz1[i] != a*a {
			t.Fatalf("square pair %d inconsistent", i)
		}
	}
	// Bit triples: c = a∧b on every bit, every share canonical (tail bits
	// past n zero), across counts on and off a word boundary.
	for _, n := range []int{1, 63, 64, 65, 526} {
		ba0, bb0, bc0 := d0.BitTriples(n)
		ba1, bb1, bc1 := d1.BitTriples(n)
		var ones uint64
		for _, sh := range []BitShare{ba0, bb0, bc0, ba1, bb1, bc1} {
			if sh.N != n || len(sh.W) != BitWords(n) || !tailClear(sh) {
				t.Fatalf("bit triples n=%d: share has N=%d, %d words, tail clear=%v", n, sh.N, len(sh.W), tailClear(sh))
			}
		}
		for i := 0; i < n; i++ {
			a := ba0.Bit(i) ^ ba1.Bit(i)
			b := bb0.Bit(i) ^ bb1.Bit(i)
			if bc0.Bit(i)^bc1.Bit(i) != a&b {
				t.Fatalf("bit triple %d of %d inconsistent", i, n)
			}
			ones += a
		}
		if n == 526 && (ones < 200 || ones > 326) {
			t.Fatalf("%d of 526 plain a bits set: the dealer is not drawing whole random words", ones)
		}
	}
}

func TestDealerMatMulConvTriples(t *testing.T) {
	d0 := NewDealer(7, 0)
	d1 := NewDealer(7, 1)
	m, k, n := 3, 4, 2
	a0, b0, z0 := d0.MatMulTriple(m, k, n)
	a1, b1, z1 := d1.MatMulTriple(m, k, n)
	a := CombineShares(a0, a1)
	b := CombineShares(b0, b1)
	z := CombineShares(z0, z1)
	want := make([]uint64, m*n)
	ringMatMul(want, a, b, m, k, n)
	for i := range want {
		if z[i] != want[i] {
			t.Fatalf("matmul triple elem %d", i)
		}
	}
	dims := ConvDims{N: 1, InC: 2, H: 4, W: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ca0, cb0, cz0 := d0.ConvTriple(dims)
	ca1, cb1, cz1 := d1.ConvTriple(dims)
	ca := CombineShares(ca0, ca1)
	cb := CombineShares(cb0, cb1)
	cz := CombineShares(cz0, cz1)
	cwant := make([]uint64, dims.OutLen())
	ringConv2D(cwant, ca, cb, dims)
	for i := range cwant {
		if cz[i] != cwant[i] {
			t.Fatalf("conv triple elem %d", i)
		}
	}
}

func TestSplitCombine(t *testing.T) {
	r := rng.New(5)
	secret := make([]uint64, 64)
	r.FillUint64(secret)
	s0, s1 := SplitSecret(secret, r)
	got := CombineShares(s0, s1)
	for i := range secret {
		if got[i] != secret[i] {
			t.Fatal("split/combine mismatch")
		}
	}
}

func TestShareReshape(t *testing.T) {
	s := NewShare(2, 3)
	v := s.Reshape(6)
	if len(v.Shape) != 1 || v.Shape[0] != 6 {
		t.Fatal("reshape shape wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape must panic")
		}
	}()
	s.Reshape(5)
}

func TestAddBias(t *testing.T) {
	xs := []float64{1, 1, 2, 2} // 1x2x1x2
	shareAndRun(t, 22, xs, []int{1, 2, 1, 2},
		func(p *Party, x Share) (Share, error) { return p.AddBias(x, []float64{0.5, -0.5}) },
		[]float64{1.5, 1.5, 1.5, 1.5}, 1e-2)
}
