package pi

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/models"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// These tests pin the ROADMAP's worker-count-independence invariant at the
// protocol level: full pi.Run outputs, one query or a packed batch, must be bit-identical
// for any kernel worker count and for the naive reference kernels vs the
// lowered conv/GEMM path. The kernel package guarantees accumulation
// order never depends on chunking; a regression there (or any
// nondeterminism in the protocol stack above it) would let the two 2PC
// parties drift out of lockstep, so the invariant is asserted on the whole
// pipeline, not just on kernel microtests.

// kernelSetting is one (workers, naive) combination under test.
type kernelSetting struct {
	name    string
	workers int
	naive   bool
}

func kernelSettings() []kernelSetting {
	many := runtime.NumCPU()
	if many < 4 {
		// Exercise a multi-chunk split even on small CI boxes: chunk
		// boundaries are what must not influence results.
		many = 4
	}
	return []kernelSetting{
		{"workers=1/lowered", 1, false},
		{fmt.Sprintf("workers=%d/lowered", many), many, false},
		{"workers=1/naive", 1, true},
		{fmt.Sprintf("workers=%d/naive", many), many, true},
	}
}

// withKernelSetting runs fn under a kernel configuration, restoring the
// previous configuration afterwards.
func withKernelSetting(s kernelSetting, fn func()) {
	prevW := kernel.SetWorkers(s.workers)
	prevN := kernel.SetNaive(s.naive)
	defer func() {
		kernel.SetWorkers(prevW)
		kernel.SetNaive(prevN)
	}()
	fn()
}

// bitsOf maps logits to their exact IEEE representations.
func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func TestRunDeterminismAcrossWorkersAndKernels(t *testing.T) {
	m, d := smallModel(t, "resnet18", models.ActX2)
	single := query(d, 3)
	queries := []*tensor.Tensor{query(d, 4), query(d, 5), query(d, 6)}

	var refRun, refBatch []uint64
	for _, s := range kernelSettings() {
		s := s
		withKernelSetting(s, func() {
			res, err := Run(m, []*tensor.Tensor{single}, 55, RunOptions{})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			batch, err := Run(m, queries, 56, RunOptions{})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			runBits, batchBits := bitsOf(res.Output), bitsOf(batch.Output)
			if refRun == nil {
				refRun, refBatch = runBits, batchBits
				return
			}
			for i := range refRun {
				if runBits[i] != refRun[i] {
					t.Fatalf("%s: Run output %d differs from reference: %x vs %x",
						s.name, i, runBits[i], refRun[i])
				}
			}
			for i := range refBatch {
				if batchBits[i] != refBatch[i] {
					t.Fatalf("%s: batched Run output %d differs from reference: %x vs %x",
						s.name, i, batchBits[i], refBatch[i])
				}
			}
		})
	}
}

// TestInferDeterminismComparisonPath repeats the invariant on a program
// with ReLU and max pooling, whose comparison rounds (on dealer AND
// triples) are the protocol's other source of potential ordering
// sensitivity. The hand-built net needs no training, so all four kernel
// settings stay cheap.
func TestInferDeterminismComparisonPath(t *testing.T) {
	v := netVariants[1] // relu-maxpool-residual
	r := rng.New(77)
	net := v.build(r, v.hw, v.inC, 3)
	warmNet(net, r, v.hw, v.inC)
	queries := randQueries(r, 2, v.inC, v.hw)

	var refSeq, refBatch [][]float64
	for _, s := range kernelSettings() {
		s := s
		withKernelSetting(s, func() {
			seq, batched := crossPathOutputs(t, net, queries, 78)
			if refSeq == nil {
				refSeq, refBatch = seq, batched
				return
			}
			for q := range refSeq {
				for i := range refSeq[q] {
					if seq[q][i] != refSeq[q][i] {
						t.Fatalf("%s: sequential query %d logit %d drifted", s.name, q, i)
					}
					if batched[q][i] != refBatch[q][i] {
						t.Fatalf("%s: batched query %d logit %d drifted", s.name, q, i)
					}
				}
			}
		})
	}
}
