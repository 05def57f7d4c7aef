package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"
)

// phaseCount is what the clients saw in one phase.
type phaseCount struct {
	Attempted, Succeeded, Failed int
}

// passResult accumulates the epochs of one pass (untraced or traced) over
// one workload.
type passResult struct {
	Warmup, Measured phaseCount
	LatencyMS        []float64 // per measured query
	WindowS          float64   // summed measured windows
	Rows             int       // measured query rows
	Flushes          int64     // flushes inside measured windows
	WireBytes        int64     // payload bytes, both directions, all links, inside measured windows
	WireFrames       int64
	SetupS           []float64 // per epoch: provisioning + NewRouter
	RouterS          []float64 // per epoch: NewRouter alone
	Fallbacks        int64
	MaxErr           float64
	AllocBytes       uint64 // heap bytes allocated inside measured windows
	GCPauseNS        uint64
	// Invalid lists reasons the pass did not measure what the workload
	// says it measures (store fallbacks, a lane down, shed queries).
	Invalid []string
}

// epochRun is what the clients of one epoch share.
type epochRun struct {
	d     *deployment
	tr    *tracer // nil on an untraced epoch
	epoch int
	pool  []*query
	mu    sync.Mutex // guards res
	res   *passResult
}

// client is one closed-loop client: it submits its next query only after
// the previous one was answered and checked. It sends n queries starting
// at pool position *next; a measured client also stops at the deadline.
func (e *epochRun) client(id int, next *int, n int, measured bool, deadline time.Time) {
	for i := 0; i < n; i++ {
		if measured && i > 0 && !time.Now().Before(deadline) {
			return
		}
		q := e.pool[*next%len(e.pool)]
		span := querySpan{Epoch: e.epoch, Client: id, ID: *next, Rows: q.rows, Measured: measured}
		*next++
		if e.tr != nil {
			span.Start = e.tr.now()
		}
		start := time.Now()
		got, err := e.d.submit(q)
		ms := time.Since(start).Seconds() * 1e3
		if e.tr != nil {
			span.End = e.tr.now()
			e.tr.query(span)
		}
		off := math.Inf(1)
		if err == nil {
			off = q.maxAbsErr(got)
		}
		e.mu.Lock()
		count := &e.res.Warmup
		if measured {
			count = &e.res.Measured
		}
		count.Attempted++
		if off <= logitBound {
			count.Succeeded++
			e.res.MaxErr = max(e.res.MaxErr, off)
			if measured {
				e.res.LatencyMS = append(e.res.LatencyMS, ms)
				e.res.Rows += q.rows
			}
		} else {
			count.Failed++
			if err != nil {
				fmt.Fprintf(os.Stderr, "epoch %d client %d query %d: %v\n", e.epoch, id, span.ID, err)
			} else {
				fmt.Fprintf(os.Stderr, "epoch %d client %d query %d: logits off by %g (bound %g)\n", e.epoch, id, span.ID, off, logitBound)
			}
		}
		e.mu.Unlock()
	}
}

// runEpoch serves one epoch: set the stack up, warm it, measure at most
// `budget` of wall time (each client at most w.EpochQueries queries), check
// the stack stayed on the path the workload names, tear down.
func runEpoch(sm *servedModel, w *workload, pool []*query, order []int, epoch int, budget time.Duration, scratch string, tr *tracer, res *passResult) error {
	// Start every set-up from a collected heap, so its time does not depend
	// on how much of the previous epoch's stores is still waiting for the GC.
	runtime.GC()
	d, err := deploy(sm, w, epoch, scratch, tr)
	if err != nil {
		return err
	}
	res.SetupS = append(res.SetupS, d.ProvisionS+d.RouterS)
	res.RouterS = append(res.RouterS, d.RouterS)

	run := &epochRun{d: d, tr: tr, epoch: epoch, pool: pool, res: res}
	cursors := make([]int, w.Clients)
	for c := range cursors {
		// Each client walks its own stride of the pool, so concurrent
		// clients send different contents.
		cursors[c] = epoch*w.Clients*(w.Warmup+w.EpochQueries) + c*len(pool)/w.Clients
	}
	phase := func(n int, measured bool, deadline time.Time) {
		var wg sync.WaitGroup
		for _, c := range order {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run.client(c, &cursors[c], n, measured, deadline)
			}()
		}
		wg.Wait()
	}
	phase(w.Warmup, false, time.Time{})

	// Both phases end with every client answered, so the router is idle
	// here: counters read at the two boundaries bracket whole queries.
	frames0, bytes0 := d.wire()
	flushes0 := d.status().Flushes
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	phase(w.EpochQueries, true, start.Add(budget))
	res.WindowS += time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	frames1, bytes1 := d.wire()
	st := d.status()
	res.WireFrames += frames1 - frames0
	res.WireBytes += bytes1 - bytes0
	res.Flushes += st.Flushes - flushes0
	res.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	res.GCPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs

	res.Fallbacks += st.Fallbacks
	if w.StoreFed && st.Fallbacks > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("epoch %d: %d flushes fell back to the live dealer", epoch, st.Fallbacks))
	}
	if st.Shed > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("epoch %d: %d queries shed", epoch, st.Shed))
	}
	for _, down := range st.Down {
		res.Invalid = append(res.Invalid, fmt.Sprintf("epoch %d: lane down: %s", epoch, down))
	}
	if err := d.close(); err != nil {
		res.Invalid = append(res.Invalid, fmt.Sprintf("epoch %d: teardown: %v", epoch, err))
	}
	return nil
}

// minEpochFrac is the smallest remaining share of the target window worth
// another set-up.
const minEpochFrac = 0.15

// passes runs epochs until each pass has its share of the measured window.
// With a tracer the epochs alternate untraced / traced, so drift in the
// machine lands on both alike and their difference is the tracing cost.
func passes(sm *servedModel, w *workload, pool []*query, seed uint64, target time.Duration, scratch string, tr *tracer) (plain, traced *passResult, err error) {
	plain = &passResult{}
	sides := []*passResult{plain}
	tracers := []*tracer{nil}
	if tr != nil {
		traced = &passResult{}
		sides = append(sides, traced)
		tracers = append(tracers, tr)
		target /= 2
	}
	// The seed decides client start order (and, through the pool, query
	// contents) — nothing else: 2PC timing is oblivious to input values.
	order := rand.New(rand.NewSource(int64(seed))).Perm(w.Clients)
	left := func(r *passResult) time.Duration {
		return target - time.Duration(r.WindowS*float64(time.Second))
	}
	done := func(r *passResult) bool {
		return len(r.SetupS) > 0 && left(r) < time.Duration(minEpochFrac*float64(target))
	}
	for epoch := 0; ; epoch++ {
		side := epoch % len(sides)
		if done(sides[side]) {
			if done(sides[len(sides)-1-side]) {
				break
			}
			continue
		}
		if err := runEpoch(sm, w, pool, order, epoch, left(sides[side]), scratch, tracers[side], sides[side]); err != nil {
			return nil, nil, err
		}
	}
	return plain, traced, nil
}
