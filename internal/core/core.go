// Package core is the top-level PASNet framework facade (paper Fig. 3):
// it wires the hardware latency model, the backbone zoo, the
// differentiable hardware-aware search and post-search training into the
// closed "algorithm ↔ hardware" loop the paper proposes; the derived model
// deploys under 2PC through pi.Run or a pi.Session pair. Downstream users who just want the paper's pipeline use
// this package (or the root pasnet package that re-exports it); the
// individual subsystems remain available under internal/.
package core

import (
	"fmt"

	"pasnet/internal/dataset"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
)

// Framework bundles a hardware configuration with the search machinery.
type Framework struct {
	// HW is the cryptographic hardware model (defaults to the ZCU104
	// pair over 1 GB/s LAN).
	HW hwmodel.Config
}

// New returns a framework over the given hardware model.
func New(hw hwmodel.Config) (*Framework, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	return &Framework{HW: hw}, nil
}

// Default returns the framework with the paper's evaluation hardware.
func Default() *Framework { return &Framework{HW: hwmodel.DefaultConfig()} }

// LatencyLUT builds the latency lookup table Lat(OP) for a backbone's
// operators (paper step ①: "2PC operator latency modeling & benchmark").
func (f *Framework) LatencyLUT(backbone string, cfg models.Config) (*hwmodel.LUT, error) {
	cfg.OpsOnly = true
	m, err := models.ByName(backbone, cfg)
	if err != nil {
		return nil, err
	}
	lut := hwmodel.NewLUT(f.HW)
	lut.Build(m.Ops)
	// Also precompute both activation candidates at every slot so the
	// table covers the full search space.
	for _, s := range m.Slots {
		if s.Kind == models.SlotAct {
			lut.Cost(hwmodel.NetOp{Kind: hwmodel.OpReLU, Shape: s.Shape})
			lut.Cost(hwmodel.NetOp{Kind: hwmodel.OpX2Act, Shape: s.Shape})
		} else {
			lut.Cost(hwmodel.NetOp{Kind: hwmodel.OpMaxPool, Shape: s.Shape})
			lut.Cost(hwmodel.NetOp{Kind: hwmodel.OpAvgPool, Shape: s.Shape})
		}
	}
	return lut, nil
}

// Search runs the differentiable polynomial architecture search (paper
// step ② and Algorithm 1) against this framework's hardware model.
func (f *Framework) Search(opts nas.Options, train, val *dataset.Dataset) (*nas.Result, error) {
	opts.HW = f.HW
	return nas.Search(opts, train, val)
}

// Pipeline is the one-call closed loop: search under λ, finetune the
// derived model (transfer with STPAI), and report deployment metrics.
type PipelineResult struct {
	// Search is the raw search outcome.
	Search *nas.Result
	// Train is the finetuning outcome on the derived model.
	Train nas.TrainResult
	// Cost is the modelled private-inference cost of the derived model.
	Cost hwmodel.Cost
	// EfficiencyPerMsKW is the paper's 1/(ms·kW) energy metric.
	EfficiencyPerMsKW float64
}

// SearchAndTrain executes the full pipeline.
func (f *Framework) SearchAndTrain(opts nas.Options, tOpts nas.TrainOptions,
	train, val *dataset.Dataset) (*PipelineResult, error) {
	res, err := f.Search(opts, train, val)
	if err != nil {
		return nil, fmt.Errorf("core: search: %w", err)
	}
	tr, err := nas.TrainModel(res.Derived, train, val, tOpts)
	if err != nil {
		return nil, fmt.Errorf("core: finetune: %w", err)
	}
	cost := res.Derived.Cost(f.HW)
	return &PipelineResult{
		Search:            res,
		Train:             tr,
		Cost:              cost,
		EfficiencyPerMsKW: f.HW.Efficiency(cost.TotalSec, 1e-3),
	}, nil
}
