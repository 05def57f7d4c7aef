package nas

import (
	"fmt"

	"pasnet/internal/dataset"
	"pasnet/internal/models"
	"pasnet/internal/nn"
	"pasnet/internal/tensor"
)

// TrainOptions configures plain supervised training of a derived model
// (the paper's post-search transfer/finetune phase; X²act layers start
// from STPAI so the polynomial path behaves as identity initially).
type TrainOptions struct {
	// Steps is the number of minibatch updates.
	Steps int
	// BatchSize is the minibatch size.
	BatchSize int
	// LR, Momentum, WeightDecay drive SGD.
	LR, Momentum, WeightDecay float64
	// Seed drives shuffling.
	Seed uint64
	// EvalEvery, when positive, records validation accuracy every so
	// many steps.
	EvalEvery int
}

// DefaultTrainOptions returns settings that converge on the synthetic
// task quickly.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Steps: 150, BatchSize: 16,
		// LR 0.02 keeps deep all-polynomial stacks stable (quadratic
		// activations diverge at 0.05 on some seeds even under STPAI).
		LR: 0.02, Momentum: 0.9, WeightDecay: 3e-4,
		Seed: 21,
	}
}

// TrainResult reports training telemetry.
type TrainResult struct {
	// FinalTrainLoss is the loss at the last step.
	FinalTrainLoss float64
	// ValAccuracy is the final validation accuracy.
	ValAccuracy float64
	// ValTop5 is the final top-5 accuracy.
	ValTop5 float64
	// Curve records validation accuracy at EvalEvery intervals.
	Curve []float64
}

// TrainModel fits a model to the training set and evaluates on val.
func TrainModel(m *models.Model, train, val *dataset.Dataset, opts TrainOptions) (TrainResult, error) {
	if m.Net == nil {
		return TrainResult{}, fmt.Errorf("nas: model %q has no trainable network", m.Name)
	}
	net := m.Net
	opt := nn.NewSGD(opts.LR, opts.Momentum, opts.WeightDecay)
	it := dataset.NewIterator(train, opts.BatchSize, opts.Seed)
	var res TrainResult
	for step := 0; step < opts.Steps; step++ {
		x, y := it.Next()
		out := net.Forward(x, true)
		loss, grad := nn.SoftmaxCE(out, y)
		net.ZeroGrad()
		net.Backward(grad)
		nn.ClipGradNorm(net.Weights(), 5)
		opt.Step(net.Weights())
		res.FinalTrainLoss = loss
		if opts.EvalEvery > 0 && (step+1)%opts.EvalEvery == 0 {
			res.Curve = append(res.Curve, Evaluate(m, val, opts.BatchSize))
		}
	}
	// Each ReLU's input bound on the training set is model data: the 2PC
	// comparison sizes itself to it (see nn.ReLU.Bound).
	rows := inOrder(train, opts.BatchSize)
	net.RecordReLUBounds(func(i int) *tensor.Tensor {
		x, _ := rows(i)
		return x
	})
	res.ValAccuracy = Evaluate(m, val, opts.BatchSize)
	res.ValTop5 = EvaluateTopK(m, val, opts.BatchSize, 5)
	return res, nil
}

// inOrder returns a function giving batch i of d in dataset order,
// batchSize rows each (32 when batchSize ≤ 0), or nil past the last.
func inOrder(d *dataset.Dataset, batchSize int) func(i int) (*tensor.Tensor, []int) {
	if batchSize <= 0 {
		batchSize = 32
	}
	all := make([]int, d.Len())
	for i := range all {
		all[i] = i
	}
	return func(i int) (*tensor.Tensor, []int) { return d.BatchAt(all, i, batchSize) }
}

// Evaluate returns top-1 accuracy of the model on a dataset.
func Evaluate(m *models.Model, d *dataset.Dataset, batchSize int) float64 {
	return EvaluateTopK(m, d, batchSize, 1)
}

// EvaluateTopK returns top-k accuracy of the model on a dataset.
func EvaluateTopK(m *models.Model, d *dataset.Dataset, batchSize int, k int) float64 {
	total, correct := 0, 0.0
	rows := inOrder(d, batchSize)
	for i := 0; ; i++ {
		x, y := rows(i)
		if x == nil {
			break
		}
		out := m.Net.Forward(x, false)
		correct += nn.TopK(out, y, k) * float64(len(y))
		total += len(y)
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}
