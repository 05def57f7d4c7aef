// Package kernel holds the shared compute kernels behind every convolution
// and matrix-multiplication hot path in the repository: a register-tiled
// GEMM, the batch-folded convolution lowering that feeds it output
// positions read straight from the input — in-bounds taps only, against a
// kernel packed once per geometry (ConvPlan) — the im2col/col2im
// lowering of the training backward pass, and chunked elementwise
// primitives, all instantiated over both float64 (plaintext training) and
// uint64 (the 2PC ring Z_{2^64}, where Go's native wrapping arithmetic is
// exactly the ring semantics).
//
// The GEMM's 6×4 microkernel runs in AVX-512 assembly for the ring on an
// amd64 CPU that has AVX-512 F, DQ and VL, which a CPUID and XGETBV check
// decides once at init; there is no setting for it. On that path a
// ConvPlan packs no input panel: its own assembly tile reads each
// position's taps from the input in place, eight output channels per
// pass. The Go body, float64's always, packs each panel first. The same
// check routes
// the ring's elementwise passes — Add, Sub, TruncAdd (a linear op's z add,
// truncation and bias) and X2Act (the polynomial activation's combine) —
// to eight-lane ZMM loops whose last partial block runs under a lane mask.
// Other CPUs and architectures, and float64 everywhere, run the Go loops,
// which are also the assembly's equivalence references. Ring arithmetic
// is exact mod 2⁶⁴ and VPSRAQ equals int64 >> f, so both bodies give the
// same words; float64 stays on Go because a fused multiply-add would round
// once and change training's bits.
//
// Work is spread over a package-level worker pool sized from
// runtime.NumCPU(). The split points never depend on the worker count in a
// way that changes accumulation order — each output row is always reduced
// sequentially — so results are bit-identical for any SetWorkers value,
// which is what lets the 2PC parties stay in lockstep while using however
// many cores they each have.
package kernel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workersEnv overrides the default worker count (useful for containerized
// deployments where NumCPU over-reports the usable share). It is the only
// environment input the package reads.
const workersEnv = "PASNET_KERNEL_WORKERS"

var (
	workers  atomic.Int64
	useNaive atomic.Bool

	poolOnce sync.Once
	jobs     chan poolJob
)

func init() {
	n, err := parseWorkers(os.Getenv(workersEnv), runtime.NumCPU())
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernel: %v; using %d workers\n", err, n)
	}
	workers.Store(int64(n))
}

// parseWorkers interprets a workersEnv value: empty means ncpu, a positive
// integer is taken as is, and anything else is an error naming the bad
// value, returned alongside the ncpu fallback.
func parseWorkers(s string, ncpu int) (int, error) {
	if s == "" {
		return ncpu, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return ncpu, fmt.Errorf("%s=%q is not a positive integer", workersEnv, s)
	}
	return v, nil
}

// Workers returns the current parallelism degree.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the parallelism degree and returns the previous value.
// n <= 0 resets to runtime.NumCPU(). SetWorkers(1) forces every kernel to
// run on the calling goroutine, which tests use for determinism checks.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return int(workers.Swap(int64(n)))
}

// SetNaive routes Conv2D and the MatMul family through the retained
// single-threaded naive reference loops instead of the tiled kernels, and
// returns the previous setting. The two paths produce bit-identical
// results in both element domains (per-element accumulation runs in
// strictly ascending k order everywhere), so the switch exists only so
// benchmarks and equivalence tests can compare them through the full
// protocol stack.
func SetNaive(on bool) bool { return useNaive.Swap(on) }

// Naive reports whether the naive reference path is forced.
func Naive() bool { return useNaive.Load() }

// poolJob is one chunk of a parallelFor.
type poolJob struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// startPool lazily launches the long-lived workers. The pool is sized from
// NumCPU once; SetWorkers only controls how many chunks a kernel splits
// into, so oversubscribing simply queues chunks.
func startPool() {
	jobs = make(chan poolJob, 4*runtime.NumCPU())
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for j := range jobs {
				j.fn(j.lo, j.hi)
				j.wg.Done()
			}
		}()
	}
}

// parallelFor runs fn over [0, n) split into chunks of at least grain
// elements, using at most Workers() chunks. The caller's goroutine always
// executes the final chunk, and if the pool's queue is full a chunk runs
// inline instead of blocking — kernels therefore make progress even when
// both 2PC parties issue work concurrently. fn must not itself call
// parallelFor (kernels parallelize exactly one axis).
func parallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if grain < 1 {
		grain = 1
	}
	if w <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo+size < n {
		hi := lo + size
		wg.Add(1)
		j := poolJob{fn: fn, lo: lo, hi: hi, wg: &wg}
		select {
		case jobs <- j:
		default:
			fn(lo, hi) // pool saturated: run inline rather than block
			wg.Done()
		}
		lo = hi
	}
	fn(lo, n)
	wg.Wait()
}

// Range runs fn over [0, n) in parallel chunks when n exceeds the
// elementwise grain, otherwise inline. It is the hook the mpc layer uses
// for truncation and other per-element passes over large shares.
func Range(n int, fn func(lo, hi int)) { parallelFor(n, elemGrain, fn) }
