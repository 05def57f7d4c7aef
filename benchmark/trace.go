package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the benchmark's own tracing: spans are recorded around the
// calls the benchmark makes into the serving stack (Router.Submit, and
// every Send*/Recv* on both ends of every shard link), kept in memory, and
// written once at exit. Nothing inside the program is instrumented.
//
// Span tree of one served query:
//
//	query   client's Submit call → verified logits
//	  flush   the lane's shape frame sent → its last receive (party 1 end)
//	    send / recv_wait   one Conn call each
//
// plus the mirror p0.recv_wait on the vendor end of the link. A span's
// self time is its duration minus the part its children cover.

// linkEnd observes one end of one shard link. The frame and byte counters
// always run (they are the exact counts end-to-end metrics use); per-call
// spans are recorded only when a tracer is attached.
type linkEnd struct {
	epoch, lane, party int
	// frames and bytes count every frame this end sent or received, and
	// its payload bytes. Everything a query puts on the link in either
	// direction has passed the party-1 end by the time its reply is out,
	// so that end's counters bracket whole queries exactly.
	frames, bytes atomic.Int64
	tr            *tracer

	mu sync.Mutex
	// sendFlush and recvFlush number the flush the next send / receive
	// belongs to. On the party-1 end a flush starts with its 4-dim shape
	// frame; both ends see the peer's 4-dim shape frame as the flush's
	// first receive. Sends of party 0 follow its receives.
	sendFlush, recvFlush int
	ops                  []wireOp
}

// wireOp is one Conn call on one link end, in nanoseconds since the
// tracer's origin.
type wireOp struct {
	Send       bool
	Start, End int64
	Flush      int
	// FlushStart marks the 4-dim shape frame that opens a flush on this
	// end and direction; Rows is the row count it carries (party 0
	// announces 0: any batch size).
	FlushStart bool
	Rows       int
}

// begin stamps the start of a Conn call (zero when not tracing).
func (e *linkEnd) begin() int64 {
	if e.tr == nil {
		return 0
	}
	return e.tr.now()
}

// sent accounts one completed send; shape is non-nil for shape frames.
func (e *linkEnd) sent(start int64, payload int, shape []int) {
	e.frames.Add(1)
	e.bytes.Add(int64(payload))
	if e.tr == nil {
		return
	}
	end := e.tr.now()
	e.mu.Lock()
	op := wireOp{Send: true, Start: start, End: end}
	if e.party == 1 {
		if len(shape) == 4 {
			e.sendFlush++
			op.FlushStart, op.Rows = true, shape[0]
		}
		op.Flush = e.sendFlush
	} else {
		op.Flush = e.recvFlush
	}
	e.ops = append(e.ops, op)
	e.mu.Unlock()
}

// received accounts one completed receive; shape is non-nil for shape
// frames.
func (e *linkEnd) received(start int64, payload int, shape []int) {
	e.frames.Add(1)
	e.bytes.Add(int64(payload))
	if e.tr == nil {
		return
	}
	end := e.tr.now()
	e.mu.Lock()
	op := wireOp{Start: start, End: end}
	if len(shape) == 4 {
		e.recvFlush++
		op.FlushStart, op.Rows = true, shape[0]
	}
	op.Flush = e.recvFlush
	e.ops = append(e.ops, op)
	e.mu.Unlock()
}

// querySpan is one client Submit call.
type querySpan struct {
	Epoch, Client, ID int
	Start, End        int64
	Rows              int
	Measured          bool
}

// tracer collects the spans of one traced pass.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	links   [][2]*linkEnd // both ends of every traced link, indexed by party
	queries []querySpan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// attach starts recording spans on both ends of a link.
func (t *tracer) attach(p0, p1 *linkEnd) {
	p0.tr, p1.tr = t, t
	t.mu.Lock()
	t.links = append(t.links, [2]*linkEnd{p0, p1})
	t.mu.Unlock()
}

func (t *tracer) query(q querySpan) {
	t.mu.Lock()
	t.queries = append(t.queries, q)
	t.mu.Unlock()
}

// flushSpan is one flush as seen from the party-1 end of its lane.
type flushSpan struct {
	Epoch, Lane, Index int
	Start, End         int64
	Rows               int
	// Rounds counts send→recv flips on the party-1 end in completion
	// order — internal/obs's definition. Under transport.Exchange the
	// send and the receive run concurrently; on a delayed link the send
	// always completes first and the count is exact, on a plain pipe
	// either may, so there it is a lower bound.
	Rounds int
	// SendNS is the time covered by send calls and not by a receive;
	// RecvNS the time covered by receive calls. LocalNS is the rest of
	// the flush: party 1 computing.
	SendNS, RecvNS, LocalNS int64
	// P0RecvNS is the vendor end's time in receives inside this flush,
	// not counting its idle wait for the flush to start.
	P0RecvNS int64
	measured bool
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of the intervals.
func covered(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, hi int64
	for i, v := range iv {
		if i == 0 || v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}

// flushesOf rebuilds the flush spans of one link from its two ends' ops.
func flushesOf(p0, p1 *linkEnd) []*flushSpan {
	byIdx := map[int]*flushSpan{}
	get := func(i int) *flushSpan {
		f := byIdx[i]
		if f == nil {
			f = &flushSpan{Epoch: p1.epoch, Lane: p1.lane, Index: i, Start: -1}
			byIdx[i] = f
		}
		return f
	}
	sends, recvs := map[int][]interval{}, map[int][]interval{}
	ordered := map[int][]wireOp{}
	for _, op := range p1.ops {
		if op.Flush == 0 {
			continue // set-up traffic before the first flush
		}
		f := get(op.Flush)
		if op.Send {
			if f.Start < 0 || op.Start < f.Start {
				f.Start = op.Start
			}
			if op.FlushStart {
				f.Rows = op.Rows
			}
			sends[op.Flush] = append(sends[op.Flush], interval{op.Start, op.End})
		} else {
			if op.End > f.End {
				f.End = op.End
			}
			recvs[op.Flush] = append(recvs[op.Flush], interval{op.Start, op.End})
		}
		ordered[op.Flush] = append(ordered[op.Flush], op)
	}
	for _, op := range p0.ops {
		// The receive that opens a flush on party 0 is its idle wait for
		// traffic, not part of the flush.
		if f := byIdx[op.Flush]; f != nil && !op.Send && !op.FlushStart {
			f.P0RecvNS += op.End - op.Start
		}
	}
	var out []*flushSpan
	for i, f := range byIdx {
		if f.Start < 0 || f.End <= f.Start || f.Rows == 0 {
			continue // the close sentinel, or a flush cut off by teardown
		}
		f.RecvNS = covered(recvs[i])
		f.SendNS = covered(append(append([]interval(nil), sends[i]...), recvs[i]...)) - f.RecvNS
		f.LocalNS = f.End - f.Start - f.RecvNS - f.SendNS
		ops := ordered[i] // completion order: ops are appended as calls return
		for j := 1; j < len(ops); j++ {
			if ops[j-1].Send && !ops[j].Send {
				f.Rounds++
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].End < out[b].End })
	return out
}

// ledger is the traced pass reduced to per-layer numbers. Times are means
// in milliseconds unless named otherwise; only measured-phase queries and
// the flushes that carried them count.
type ledger struct {
	Unmatched               int       // measured queries no flush was found for
	QueryMS                 []float64 // per measured query
	QueueGatherMS           []float64 // per matched query: query − its flush
	FlushMS                 []float64 // per flush
	RowsPerFlush            float64
	RoundsPerFlush          float64
	LocalMS, SendMS, RecvMS float64 // per flush
	P0RecvMS                float64 // per flush
	// SelfSumFrac is (queue_gather + local + send + recv_wait) / query,
	// all as means per query; 1 when every traced millisecond is
	// attributed exactly once.
	SelfSumFrac float64
}

// reduce matches queries to flushes and folds the spans into a ledger.
// A query belongs to the flush that completed last before the query did,
// on any lane of its epoch, among flushes that started after the query
// was submitted; each flush takes as many queries as its shape frame
// carried rows. On a single-client workload that is 1:1 in order.
func (t *tracer) reduce() (*ledger, []*flushSpan, map[int]*flushSpan) {
	byEpoch := map[int][]*flushSpan{}
	var all []*flushSpan
	for _, l := range t.links {
		fs := flushesOf(l[0], l[1])
		byEpoch[l[1].epoch] = append(byEpoch[l[1].epoch], fs...)
		all = append(all, fs...)
	}
	parent := map[int]*flushSpan{} // query index → flush
	queries := append([]querySpan(nil), t.queries...)
	order := make([]int, len(queries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return queries[order[a]].End < queries[order[b]].End })
	taken := make([]bool, len(queries))
	for epoch, fs := range byEpoch {
		sort.Slice(fs, func(a, b int) bool { return fs[a].End < fs[b].End })
		for _, f := range fs {
			need := f.Rows
			for _, qi := range order {
				if need <= 0 {
					break
				}
				q := queries[qi]
				if taken[qi] || q.Epoch != epoch || q.End < f.End || q.Start > f.Start || q.Rows > need {
					continue
				}
				taken[qi] = true
				parent[qi] = f
				need -= q.Rows
				if q.Measured {
					f.measured = true
				}
			}
		}
	}
	led := &ledger{}
	var queueSum float64
	for qi, q := range queries {
		if !q.Measured {
			continue
		}
		ms := float64(q.End-q.Start) / 1e6
		led.QueryMS = append(led.QueryMS, ms)
		f := parent[qi]
		if f == nil {
			led.Unmatched++
			continue
		}
		fms := float64(f.End-f.Start) / 1e6
		led.QueueGatherMS = append(led.QueueGatherMS, ms-fms)
		queueSum += ms - fms
	}
	var rows, rounds int
	for _, f := range all {
		if !f.measured {
			continue
		}
		led.FlushMS = append(led.FlushMS, float64(f.End-f.Start)/1e6)
		rows += f.Rows
		rounds += f.Rounds
		led.LocalMS += float64(f.LocalNS) / 1e6
		led.SendMS += float64(f.SendNS) / 1e6
		led.RecvMS += float64(f.RecvNS) / 1e6
		led.P0RecvMS += float64(f.P0RecvNS) / 1e6
	}
	if n := float64(len(led.FlushMS)); n > 0 {
		led.RowsPerFlush = float64(rows) / n
		led.RoundsPerFlush = float64(rounds) / n
		led.LocalMS /= n
		led.SendMS /= n
		led.RecvMS /= n
		led.P0RecvMS /= n
	}
	if matched := float64(len(led.QueueGatherMS)); matched > 0 && mean(led.QueryMS) > 0 {
		// Per query: its queue/gather self time plus its flush, split into
		// the flush's three self times. The flush terms are per-flush
		// means, which equal per-query means when flushes carry one query.
		led.SelfSumFrac = (queueSum/matched + led.LocalMS + led.SendMS + led.RecvMS) / mean(led.QueryMS)
	}
	return led, all, parent
}

// traceSpan is the trace.json record: one span with its parent (for a flush
// that carried several queries, the first of them).
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Epoch   int    `json:"epoch"`
	Query   int    `json:"query,omitempty"` // query id within its client
	Client  int    `json:"client,omitempty"`
	Lane    int    `json:"lane"`
	Rows    int    `json:"rows,omitempty"`
	Phase   string `json:"phase,omitempty"`
}

// write dumps every span to path as one JSON document.
func (t *tracer) write(path string, all []*flushSpan, parent map[int]*flushSpan) error {
	var spans []traceSpan
	next := 1
	type flushKey struct{ epoch, lane, index int }
	flushID := map[flushKey]int{}
	queryOf := map[*flushSpan]int{}
	for qi, q := range t.queries {
		phase := "warmup"
		if q.Measured {
			phase = "measured"
		}
		lane := -1
		if f := parent[qi]; f != nil {
			lane = f.Lane
			if _, ok := queryOf[f]; !ok {
				queryOf[f] = next
			}
		}
		spans = append(spans, traceSpan{ID: next, Name: "query", StartNS: q.Start, EndNS: q.End,
			Epoch: q.Epoch, Query: q.ID, Client: q.Client, Lane: lane, Rows: q.Rows, Phase: phase})
		next++
	}
	for _, f := range all {
		flushID[flushKey{f.Epoch, f.Lane, f.Index}] = next
		spans = append(spans, traceSpan{ID: next, Parent: queryOf[f], Name: "flush", StartNS: f.Start, EndNS: f.End,
			Epoch: f.Epoch, Lane: f.Lane, Rows: f.Rows})
		next++
	}
	for _, l := range t.links {
		for _, e := range l {
			for _, op := range e.ops {
				name := "recv_wait"
				if op.Send {
					name = "send"
				}
				if e.party == 0 {
					name = "p0." + name
				}
				spans = append(spans, traceSpan{ID: next, Parent: flushID[flushKey{e.epoch, e.lane, op.Flush}], Name: name,
					StartNS: op.Start, EndNS: op.End, Epoch: e.epoch, Lane: e.lane})
				next++
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
