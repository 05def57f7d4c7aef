// Package dataset generates the deterministic synthetic image
// classification tasks that stand in for CIFAR-10/ImageNet: the
// reproduction replaces unavailable datasets with synthetic equivalents
// that exercise the same code paths and preserve accuracy *trends*.
//
// Construction: each sample draws a latent vector z ~ N(0,1)^d; the label
// comes from a fixed randomly-initialized two-layer ReLU teacher network
// (so class structure is genuinely nonlinear — a linear student cannot
// match the teacher), and the image renders z through fixed random basis
// patterns plus pixel noise (so a convolutional student must first recover
// the latent code). ReLU students can express the teacher exactly while
// polynomial students approximate it, reproducing the paper's small
// ReLU-vs-poly accuracy gap.
package dataset

import (
	"fmt"
	"math"

	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// SynthConfig parameterizes the generator.
type SynthConfig struct {
	// N is the sample count.
	N int
	// Classes is the number of labels.
	Classes int
	// C, HW are the image channels and square size.
	C, HW int
	// LatentDim is the dimensionality of the hidden code.
	LatentDim int
	// TeacherHidden is the teacher MLP's hidden width.
	TeacherHidden int
	// TeacherDepth is the number of hidden ReLU layers in the teacher
	// (>= 1). Deeper teachers carve more nonlinear class boundaries,
	// widening the gap between linear(ized) and nonlinear students.
	TeacherDepth int
	// Noise is the pixel noise standard deviation.
	Noise float64
	// Seed makes the dataset reproducible.
	Seed uint64
}

// CIFARLike returns the configuration used by the search experiments:
// 32×32×3 images, 10 classes.
func CIFARLike(n int, seed uint64) SynthConfig {
	return SynthConfig{
		N: n, Classes: 10, C: 3, HW: 32,
		LatentDim: 16, TeacherHidden: 32, TeacherDepth: 2, Noise: 0.25, Seed: seed,
	}
}

// Dataset is an in-memory labelled image set.
type Dataset struct {
	// Images is N×C×H×W.
	Images *tensor.Tensor
	// Labels holds one class index per image.
	Labels []int
	// Classes is the label arity.
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Synthetic generates a dataset per the config.
func Synthetic(cfg SynthConfig) *Dataset {
	if cfg.N <= 0 || cfg.Classes <= 1 || cfg.C <= 0 || cfg.HW <= 0 {
		panic(fmt.Sprintf("dataset: invalid config %+v", cfg))
	}
	if cfg.LatentDim == 0 {
		cfg.LatentDim = 16
	}
	if cfg.TeacherHidden == 0 {
		cfg.TeacherHidden = 32
	}
	if cfg.TeacherDepth < 1 {
		cfg.TeacherDepth = 1
	}
	r := rng.New(cfg.Seed)
	d := cfg.LatentDim
	h := cfg.TeacherHidden

	// Fixed teacher: logits = Wout · relu(Wk · ... relu(W1 · z)).
	w1 := make([]float64, h*d)
	r.FillNorm(w1, 1/math.Sqrt(float64(d)))
	hiddenWs := make([][]float64, cfg.TeacherDepth-1)
	for i := range hiddenWs {
		hiddenWs[i] = make([]float64, h*h)
		r.FillNorm(hiddenWs[i], 1.6/math.Sqrt(float64(h)))
	}
	w2 := make([]float64, cfg.Classes*h)
	r.FillNorm(w2, 1/math.Sqrt(float64(h)))

	// Fixed rendering bases: one C×H×W pattern per latent dimension.
	// The bases are spatially disjoint tiles (hence orthogonal), so latent
	// recovery is a well-conditioned local projection and task difficulty
	// comes from the teacher's nonlinearity rather than deconvolution.
	pix := cfg.C * cfg.HW * cfg.HW
	basis := make([]float64, d*pix)
	cols := int(math.Ceil(math.Sqrt(float64(d))))
	rows := (d + cols - 1) / cols
	tileH := cfg.HW / rows
	tileW := cfg.HW / cols
	if tileH < 1 || tileW < 1 {
		panic("dataset: latent dimension too large for image size")
	}
	for k := 0; k < d; k++ {
		ty := (k / cols) * tileH
		tx := (k % cols) * tileW
		freq := 2 * math.Pi * float64(k%3+1) / float64(tileW)
		for c := 0; c < cfg.C; c++ {
			sign := 1.0
			if (k+c)%2 == 1 {
				sign = -1
			}
			for y := ty; y < ty+tileH; y++ {
				for x := tx; x < tx+tileW; x++ {
					stripe := 0.5 * math.Cos(freq*float64(x-tx))
					basis[k*pix+(c*cfg.HW+y)*cfg.HW+x] = sign * (1 + stripe)
				}
			}
		}
	}

	// Calibrate per-class logit offsets on a pilot draw so that argmax
	// labels come out roughly balanced (deep random teachers otherwise
	// collapse onto a few classes).
	classBias := make([]float64, cfg.Classes)
	{
		pilot := 64 * cfg.Classes
		rc := rng.New(cfg.Seed ^ 0xbeefcafe)
		zPilot := make([]float64, d)
		sums := make([]float64, cfg.Classes)
		for i := 0; i < pilot; i++ {
			rc.FillNorm(zPilot, 1)
			lg := teacherLogits(zPilot, w1, hiddenWs, w2, h, cfg.Classes)
			for cc, v := range lg {
				sums[cc] += v
			}
		}
		for cc := range classBias {
			classBias[cc] = -sums[cc] / float64(pilot)
		}
	}

	images := tensor.New(cfg.N, cfg.C, cfg.HW, cfg.HW)
	labels := make([]int, cfg.N)
	z := make([]float64, d)
	for i := 0; i < cfg.N; i++ {
		r.FillNorm(z, 1)
		logits := teacherLogits(z, w1, hiddenWs, w2, h, cfg.Classes)
		best := 0
		for cc := range logits {
			logits[cc] += classBias[cc]
			if logits[cc] > logits[best] {
				best = cc
			}
		}
		labels[i] = best
		// Render image = Σ_k z_k · basis_k + noise.
		img := images.Data[i*pix : (i+1)*pix]
		for k := 0; k < d; k++ {
			zk := z[k]
			b := basis[k*pix : (k+1)*pix]
			for p := 0; p < pix; p++ {
				img[p] += zk * b[p]
			}
		}
		for p := 0; p < pix; p++ {
			img[p] += cfg.Noise * r.Norm()
		}
	}
	return &Dataset{Images: images, Labels: labels, Classes: cfg.Classes}
}

// teacherLogits evaluates the fixed ReLU teacher on a latent vector.
func teacherLogits(z, w1 []float64, hiddenWs [][]float64, w2 []float64, h, classes int) []float64 {
	d := len(z)
	hid := make([]float64, h)
	for j := 0; j < h; j++ {
		s := 0.0
		for k := 0; k < d; k++ {
			s += w1[j*d+k] * z[k]
		}
		hid[j] = math.Max(s, 0)
	}
	for _, w := range hiddenWs {
		next := make([]float64, h)
		for j := 0; j < h; j++ {
			s := 0.0
			for k := 0; k < h; k++ {
				s += w[j*h+k] * hid[k]
			}
			next[j] = math.Max(s, 0)
		}
		hid = next
	}
	logits := make([]float64, classes)
	for cc := 0; cc < classes; cc++ {
		s := 0.0
		for j := 0; j < h; j++ {
			s += w2[cc*h+j] * hid[j]
		}
		logits[cc] = s
	}
	return logits
}

// Split partitions the dataset into two disjoint subsets with the given
// first-fraction, shuffling with seed (the paper's 50/50 train/val split
// for architecture search).
func (d *Dataset) Split(frac float64, seed uint64) (*Dataset, *Dataset) {
	r := rng.New(seed)
	perm := r.Perm(d.Len())
	nFirst := int(float64(d.Len()) * frac)
	return d.Subset(perm[:nFirst]), d.Subset(perm[nFirst:])
}

// Subset extracts the samples at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	c, hw := d.Images.Shape[1], d.Images.Shape[2]
	pix := c * hw * hw
	out := &Dataset{
		Images:  tensor.New(len(idx), c, hw, hw),
		Labels:  make([]int, len(idx)),
		Classes: d.Classes,
	}
	for i, j := range idx {
		copy(out.Images.Data[i*pix:(i+1)*pix], d.Images.Data[j*pix:(j+1)*pix])
		out.Labels[i] = d.Labels[j]
	}
	return out
}

// Batch gathers the samples at idx into a batch tensor and label slice.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	sub := d.Subset(idx)
	return sub.Images, sub.Labels
}

// BatchAt copies batch i (of the given size, in the order perm) out of the
// dataset. The final batch may be smaller.
func (d *Dataset) BatchAt(perm []int, i, size int) (*tensor.Tensor, []int) {
	start := i * size
	if start >= len(perm) {
		return nil, nil
	}
	end := start + size
	if end > len(perm) {
		end = len(perm)
	}
	sub := d.Subset(perm[start:end])
	return sub.Images, sub.Labels
}

// Iterator yields shuffled minibatches, reshuffling at each epoch boundary.
type Iterator struct {
	d    *Dataset
	r    *rng.RNG
	size int
	perm []int
	pos  int
}

// NewIterator returns a minibatch iterator with its own shuffle stream.
func NewIterator(d *Dataset, batchSize int, seed uint64) *Iterator {
	it := &Iterator{d: d, r: rng.New(seed), size: batchSize}
	it.reshuffle()
	return it
}

func (it *Iterator) reshuffle() {
	it.perm = it.r.Perm(it.d.Len())
	it.pos = 0
}

// Next returns the next minibatch, reshuffling transparently at epoch
// boundaries (the stream is infinite).
func (it *Iterator) Next() (*tensor.Tensor, []int) {
	if it.pos+it.size > it.d.Len() {
		it.reshuffle()
	}
	idx := it.perm[it.pos : it.pos+it.size]
	it.pos += it.size
	sub := it.d.Subset(idx)
	return sub.Images, sub.Labels
}
