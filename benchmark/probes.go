package main

import "time"

// probeResult holds the layer probes of one workload: each layer's public
// functions called directly at the workload's own shapes, outside the
// serving path. They say what a layer costs alone; the traced pass says
// what the served query spent where.
type probeResult struct {
	DispatchUSPerQuery float64

	SessionSetupS  float64
	SessionQueryMS []float64

	// ReLU, MaxPool and X2Act run on a plain pipe: the op's compute.
	// ReLULink repeats the ReLU probe on the workload's own link, so it
	// also pays the comparison protocol's rounds as a served query does;
	// it is zero-valued where the program has no ReLU.
	ReLU, MaxPool, X2Act mpcProbe
	ReLULink             mpcProbe
	LinearFixedWSec      float64
	DealerSec            float64

	OTUSPerTransfer float64

	OneWaySec float64

	RingSec, F64Sec float64

	Corr corrProbe
}

// probeSizes sets how much work each probe does.
type probeSizes struct {
	dispatchQueries, sessionFlushes, otTransfers, corrFlushes, hopTrips int
	// repBudget is the wall time a repeated probe aims for, after one
	// calibration pass.
	repBudget time.Duration
}

// fullProbes is what a benchmark run uses: enough repetitions for a stable
// mean, small enough that all probes of a workload finish in a few seconds.
var fullProbes = probeSizes{
	dispatchQueries: 20000,
	sessionFlushes:  12,
	otTransfers:     8192, // one 256-element activation: 32 digits each
	corrFlushes:     8,
	hopTrips:        200,
	repBudget:       500 * time.Millisecond,
}

// actProbeShapes lists the activation shapes to probe for one kind: every
// distinct shape where the program has that kind, at the flush's row count
// and multiplicity; where it has none, the stem activation at one row, so
// the per-element cost is still on record as a reference (its share of
// the workload's query time is zero).
func actProbeShapes(fs *flushShape, count func(actShape) int) (shapes [][]int, counts []int) {
	for _, a := range fs.acts {
		if n := count(a); n > 0 {
			shapes = append(shapes, []int{fs.rows, a.c, a.hw, a.hw})
			counts = append(counts, n)
		}
	}
	if len(shapes) == 0 {
		stem := fs.acts[0]
		return [][]int{{1, stem.c, stem.hw, stem.hw}}, []int{1}
	}
	return shapes, counts
}

// repsFor sizes a probe to about budget of wall time given what one pass
// took, within [1, 2000].
func repsFor(passSec float64, budget time.Duration) int {
	const most = 2000
	if passSec <= 0 {
		return most
	}
	return min(most, max(1, int(budget.Seconds()/passSec)))
}

func runProbes(sm *servedModel, w *workload, fs *flushShape, pool []*query, sz probeSizes, scratch string) (*probeResult, error) {
	var pr probeResult

	sec, err := probeDispatch(w, sz.dispatchQueries)
	if err != nil {
		return nil, err
	}
	pr.DispatchUSPerQuery = sec * 1e6 / float64(sz.dispatchQueries)

	if pr.SessionSetupS, pr.SessionQueryMS, err = probeSessionPair(sm, w, fs, pool, sz.sessionFlushes, scratch); err != nil {
		return nil, err
	}
	// The first flushes warm the pair up.
	pr.SessionQueryMS = pr.SessionQueryMS[min(2, len(pr.SessionQueryMS)-1):]

	// Every repeated probe runs one calibration pass, then repeats to about
	// the budget.
	act := func(probe func([][]int, []int, int, time.Duration) (mpcProbe, error), delay time.Duration, count func(actShape) int) (mpcProbe, error) {
		shapes, counts := actProbeShapes(fs, count)
		first, err := probe(shapes, counts, 1, delay)
		if err != nil {
			return first, err
		}
		return probe(shapes, counts, repsFor(first.sec, sz.repBudget), delay)
	}
	relus := func(a actShape) int { return a.relu }
	if pr.ReLU, err = act(probeReLU, 0, relus); err != nil {
		return nil, err
	}
	if fs.reluElems() > 0 {
		if pr.ReLULink, err = act(probeReLU, w.Delay, relus); err != nil {
			return nil, err
		}
	}
	if pr.X2Act, err = act(probeX2Act, 0, func(a actShape) int { return a.poly }); err != nil {
		return nil, err
	}
	// The demo backbone has no max-pool slot, so the max-pool probe always
	// runs at the stem shape: a 2×2/2 pool over the first activation.
	if pr.MaxPool, err = act(probeMaxPool, 0, func(actShape) int { return 0 }); err != nil {
		return nil, err
	}

	first, err := probeLinearFixedW(fs, 1)
	if err != nil {
		return nil, err
	}
	if pr.LinearFixedWSec, err = probeLinearFixedW(fs, repsFor(first, sz.repBudget)); err != nil {
		return nil, err
	}

	if first, err = probeDealer(fs, 1); err != nil {
		return nil, err
	}
	if pr.DealerSec, err = probeDealer(fs, repsFor(first, sz.repBudget)); err != nil {
		return nil, err
	}

	if sec, err = probeOT(sz.otTransfers); err != nil {
		return nil, err
	}
	pr.OTUSPerTransfer = sec * 1e6 / float64(sz.otTransfers)

	if pr.OneWaySec, err = probeHop(w.Delay, sz.hopTrips); err != nil {
		return nil, err
	}

	ring, _ := probeKernel(fs, 1)
	pr.RingSec, pr.F64Sec = probeKernel(fs, repsFor(ring, sz.repBudget/2))

	if pr.Corr, err = probeCorr(fs, sz.corrFlushes, scratch); err != nil {
		return nil, err
	}
	return &pr, nil
}
