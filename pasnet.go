// Package pasnet reproduces "PASNet: Polynomial Architecture Search
// Framework for Two-party Computation-based Secure Neural Network
// Deployment" (DAC 2023) as a pure-Go library: a 2PC secret-sharing
// protocol suite whose comparison resolves its digits with AND gates on
// dealer triples (package ot keeps the paper's Fig. 4 OT flow as a
// reference), an FPGA latency model for cryptographic DNN operators, a
// from-scratch CNN training stack, the differentiable hardware-aware
// polynomial architecture search, and a verified private-inference engine.
//
// This root package re-exports the high-level facade; see README.md for a
// tour and the examples/ directory for runnable programs.
package pasnet

import (
	"pasnet/internal/core"
	"pasnet/internal/hwmodel"
)

// Framework is the top-level entry point (alias of the internal facade).
type Framework = core.Framework

// PipelineResult is the outcome of the search→train→deploy pipeline.
type PipelineResult = core.PipelineResult

// New constructs a framework over a custom hardware model.
func New(hw hwmodel.Config) (*Framework, error) { return core.New(hw) }

// Default returns the framework configured like the paper's evaluation:
// two ZCU104-class FPGAs over a 1 GB/s LAN.
func Default() *Framework { return core.Default() }

// DefaultHardware returns the paper's evaluation hardware configuration.
func DefaultHardware() hwmodel.Config { return hwmodel.DefaultConfig() }
