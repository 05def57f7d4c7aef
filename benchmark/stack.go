package main

// stack.go is the benchmark's only importer of pasnet/internal/...: every
// call into the serving stack goes through the adapters in this file, so a
// later change to an internal API has one place to follow. README.md lists
// the symbols used.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/dataset"
	"pasnet/internal/fixed"
	"pasnet/internal/gateway"
	"pasnet/internal/hwmodel"
	"pasnet/internal/kernel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nas"
	"pasnet/internal/ot"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// Demo geometry every workload serves: resnet18 at width 1/16 on 3×8×8
// inputs with 4 classes — the geometry the repo's existing exhibits use.
const (
	demoBackbone = "resnet18"
	demoHW       = 8
	demoC        = 3
	demoClasses  = 4
	modelID      = "bench"
)

// logitBound is the correctness gate: a reply whose logits differ from the
// plaintext forward pass by more than this (max-abs) counts as failed. It
// is the gateway test suite's bound.
const logitBound = 0.05

// saneLogit keeps the query pool to rows the demo backbone evaluates well
// inside fixed-point range. Its X² stacks amplify magnitude, and with it
// truncation error: over twelve dataset seeds, rows with plaintext
// |logit| <= 2 reconstruct within 0.023, while rows up to 10 reach 0.2.
const saneLogit = 2.0

func kernelWorkers() int { return kernel.Workers() }

// servedModel is a trained demo backbone of one program class.
type servedModel struct {
	class string
	m     *models.Model
}

// trainModel deterministically trains the demo backbone in one program
// class — the same recipe as cmd/pasnet-bench's exhibits (20 steps on the
// seed-9 synthetic task), so figures stay comparable with them.
func trainModel(class string) (*servedModel, error) {
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = demoHW
	cfg.NumClasses = demoClasses
	cfg.TrainScaleOps = true
	switch class {
	case "relu-max":
		cfg.Act, cfg.Pool = models.ActReLU, models.PoolMax
	case "x2-avg":
		cfg.Act, cfg.Pool = models.ActX2, models.PoolAvg
	case "mixed":
		cfg.ActAt = func(slot int) models.ActChoice {
			if slot%2 == 0 {
				return models.ActX2
			}
			return models.ActReLU
		}
		cfg.PoolAt = func(slot int) models.PoolChoice {
			if slot%2 == 0 {
				return models.PoolAvg
			}
			return models.PoolMax
		}
	default:
		return nil, fmt.Errorf("unknown program class %q", class)
	}
	m, err := models.ByName(demoBackbone, cfg)
	if err != nil {
		return nil, err
	}
	d := synthetic(64, 9)
	opts := nas.DefaultTrainOptions()
	opts.Steps = 20
	opts.BatchSize = 8
	if _, err := nas.TrainModel(m, d, d, opts); err != nil {
		return nil, err
	}
	return &servedModel{class: class, m: m}, nil
}

func synthetic(n int, seed uint64) *dataset.Dataset {
	return dataset.Synthetic(dataset.SynthConfig{
		N: n, Classes: demoClasses, C: demoC, HW: demoHW, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: seed,
	})
}

// query is one client request with its plaintext answer.
type query struct {
	x    *tensor.Tensor
	want []float64
	rows int
}

// maxAbsErr is the reply's distance from the plaintext logits (+Inf on a
// length mismatch or a NaN).
func (q *query) maxAbsErr(got []float64) float64 {
	if len(got) != len(q.want) {
		return math.Inf(1)
	}
	var worst float64
	for i, v := range got {
		d := math.Abs(v - q.want[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = math.Max(worst, d)
	}
	return worst
}

// queryPool draws the seed's query contents: a synthetic dataset, reduced
// to the rows the model evaluates in range (see saneLogit), cut into
// queries of `rows` rows each with their plaintext logits precomputed
// (nn.Network.Forward is not safe for concurrent clients).
func queryPool(sm *servedModel, seed uint64, rows int) ([]*query, error) {
	d := synthetic(256, seed)
	var sane []int
	for i := 0; i < d.Len(); i++ {
		x, _ := d.Batch([]int{i})
		ok := true
		for _, v := range sm.m.Net.Forward(x, false).Data {
			if !(math.Abs(v) <= saneLogit) {
				ok = false
			}
		}
		if ok {
			sane = append(sane, i)
		}
	}
	if len(sane) < rows {
		return nil, fmt.Errorf("seed %d: only %d of %d dataset rows stay within |logit| <= %g on the %s model", seed, len(sane), d.Len(), saneLogit, sm.class)
	}
	var pool []*query
	for o := 0; o+rows <= len(sane); o += rows {
		x, _ := d.Batch(sane[o : o+rows])
		pool = append(pool, &query{x: x, want: sm.m.Net.Forward(x, false).Data, rows: rows})
	}
	return pool, nil
}

// timedConn sits on one end of a shard link. It embeds transport.Conn and
// overrides only the Send*/Recv* calls, so the interface can shrink or
// grow without touching it.
type timedConn struct {
	transport.Conn
	end *linkEnd
}

func (c *timedConn) SendUints(xs []uint32) error {
	t := c.end.begin()
	err := c.Conn.SendUints(xs)
	c.end.sent(t, 4*len(xs), nil)
	return err
}

func (c *timedConn) SendUint64s(xs []uint64) error {
	t := c.end.begin()
	err := c.Conn.SendUint64s(xs)
	c.end.sent(t, 8*len(xs), nil)
	return err
}

func (c *timedConn) SendBytes(b []byte) error {
	t := c.end.begin()
	err := c.Conn.SendBytes(b)
	c.end.sent(t, len(b), nil)
	return err
}

func (c *timedConn) SendShape(shape []int) error {
	t := c.end.begin()
	err := c.Conn.SendShape(shape)
	c.end.sent(t, 4*len(shape), shape)
	return err
}

func (c *timedConn) SendModelShape(model string, shape []int) error {
	t := c.end.begin()
	err := c.Conn.SendModelShape(model, shape)
	c.end.sent(t, len(model)+4*len(shape), nil)
	return err
}

func (c *timedConn) SendError(msg string) error {
	t := c.end.begin()
	err := c.Conn.SendError(msg)
	c.end.sent(t, len(msg), nil)
	return err
}

func (c *timedConn) RecvUints() ([]uint32, error) {
	t := c.end.begin()
	v, err := c.Conn.RecvUints()
	c.end.received(t, 4*len(v), nil)
	return v, err
}

func (c *timedConn) RecvUint64s() ([]uint64, error) {
	t := c.end.begin()
	v, err := c.Conn.RecvUint64s()
	c.end.received(t, 8*len(v), nil)
	return v, err
}

func (c *timedConn) RecvUint64sMax(maxElems int) ([]uint64, error) {
	t := c.end.begin()
	v, err := c.Conn.RecvUint64sMax(maxElems)
	c.end.received(t, 8*len(v), nil)
	return v, err
}

func (c *timedConn) RecvBytes() ([]byte, error) {
	t := c.end.begin()
	v, err := c.Conn.RecvBytes()
	c.end.received(t, len(v), nil)
	return v, err
}

func (c *timedConn) RecvShape() ([]int, error) {
	t := c.end.begin()
	shape, err := c.Conn.RecvShape()
	c.end.received(t, 4*len(shape), shape)
	return shape, err
}

func (c *timedConn) RecvModelShape() (string, []int, error) {
	t := c.end.begin()
	model, shape, err := c.Conn.RecvModelShape()
	c.end.received(t, len(model)+4*len(shape), nil)
	return model, shape, err
}

func (c *timedConn) RecvReply(maxElems int) ([]uint64, string, error) {
	t := c.end.begin()
	v, msg, err := c.Conn.RecvReply(maxElems)
	c.end.received(t, 8*len(v)+len(msg), nil)
	return v, msg, err
}

// newLink opens one in-process link with the workload's wire model.
func newLink(delay time.Duration) (transport.Conn, transport.Conn) {
	if delay > 0 {
		return transport.DelayPipe(delay)
	}
	return transport.Pipe()
}

// probeHop plays n one-frame round trips over a link of the given delay
// and returns the measured one-way seconds: what a protocol round costs on
// this machine, which for sub-millisecond delays is set by how finely the
// OS lets a goroutine sleep, not by the nominal figure.
func probeHop(delay time.Duration, n int) (float64, error) {
	c0, c1 := newLink(delay)
	defer c0.Close()
	defer c1.Close()
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			v, err := c0.RecvUint64s()
			if err == nil {
				err = c0.SendUint64s(v)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := c1.SendUint64s([]uint64{uint64(i)}); err != nil {
			return 0, err
		}
		if _, err := c1.RecvUint64s(); err != nil {
			return 0, err
		}
	}
	sec := time.Since(start).Seconds() / float64(2*n)
	return sec, <-echoErr
}

// deployment is one epoch's serving stack: registry, (optionally) freshly
// provisioned stores, the in-process vendor serving every shard's party-0
// end, and the router clients submit to.
type deployment struct {
	rt       *gateway.Router
	storeDir string
	vendor   sync.WaitGroup

	mu        sync.Mutex // guards ends and vendorErr: shards dial and serve concurrently
	ends      []*linkEnd
	vendorErr error

	// ProvisionS and RouterS split the set-up time: store provisioning for
	// the epoch's budget, then NewRouter (dial, hello, weight sharing,
	// F = W−b opening, store preload).
	ProvisionS, RouterS float64
}

// deploy stands the workload's stack up from a trained model. scratch is a
// directory the epoch's stores may be written under; tr is nil for an
// untraced epoch.
func deploy(sm *servedModel, w *workload, epoch int, scratch string, tr *tracer) (*deployment, error) {
	d := &deployment{}
	start := time.Now()
	reg := gateway.NewRegistry()
	reg.SetFixedMasks(true)
	if w.StoreFed {
		dir, err := os.MkdirTemp(scratch, "stores-")
		if err != nil {
			return nil, err
		}
		d.storeDir = dir
	}
	spec := &gateway.ModelSpec{
		ID:     modelID,
		Model:  sm.m,
		Input:  []int{demoC, demoHW, demoHW},
		RowCap: w.Rows,
		Shards: gateway.Shards(modelID, w.Shards, 29, d.storeDir),
	}
	if err := reg.Register(spec); err != nil {
		d.removeStores()
		return nil, err
	}
	if w.StoreFed {
		// One flush per query (Batch 1), every client's warm-up and
		// measured queries on whichever shard they land.
		budget := w.Clients * (w.Warmup + w.EpochQueries)
		if _, err := gateway.WriteShardStores(reg, []int{w.Rows}, budget); err != nil {
			d.removeStores()
			return nil, err
		}
	}
	d.ProvisionS = time.Since(start).Seconds()

	opts := gateway.RouterOptions{
		Batch:    w.Batch,
		Window:   w.Window,
		Pipeline: w.Pipeline,
		Dial: func(desc gateway.ShardDesc) (transport.Conn, error) {
			c0, c1 := newLink(w.Delay)
			e0 := &linkEnd{epoch: epoch, lane: desc.Shard, party: 0}
			e1 := &linkEnd{epoch: epoch, lane: desc.Shard, party: 1}
			if tr != nil {
				tr.attach(e0, e1)
			}
			d.mu.Lock()
			d.ends = append(d.ends, e0, e1)
			d.mu.Unlock()
			d.vendor.Add(1)
			go func() {
				defer d.vendor.Done()
				if err := gateway.ServeShardConn(&timedConn{Conn: c0, end: e0}, reg); err != nil {
					d.mu.Lock()
					d.vendorErr = errors.Join(d.vendorErr, err)
					d.mu.Unlock()
				}
			}()
			return &timedConn{Conn: c1, end: e1}, nil
		},
	}
	if w.QueueAware {
		opts.Policy = sched.QueueAware
	}
	t1 := time.Now()
	rt, err := gateway.NewRouter(reg, opts)
	if err != nil {
		d.vendor.Wait()
		d.removeStores()
		return nil, err
	}
	d.rt = rt
	d.RouterS = time.Since(t1).Seconds()
	return d, nil
}

func (d *deployment) submit(q *query) ([]float64, error) { return d.rt.Submit(modelID, q.x) }

// wire sums the frames and payload bytes that crossed every shard link, in
// both directions, since the links were opened — read at the party-1 ends
// (see linkEnd).
func (d *deployment) wire() (frames, bytes int64) {
	for _, e := range d.ends {
		if e.party == 1 {
			frames += e.frames.Load()
			bytes += e.bytes.Load()
		}
	}
	return frames, bytes
}

// laneTotals is what Router.Status says about the epoch, summed over lanes.
type laneTotals struct {
	Flushes, Fallbacks, Shed int64
	Down                     []string
}

func (d *deployment) status() laneTotals {
	var t laneTotals
	for _, st := range d.rt.Status() {
		t.Flushes += st.Flushes
		t.Fallbacks += int64(st.Fallbacks)
		t.Shed += st.Shed
		if st.Down != "" {
			t.Down = append(t.Down, fmt.Sprintf("shard %d: %s", st.Shard, st.Down))
		}
	}
	return t
}

// close drains and closes the router, waits for every vendor goroutine and
// removes the epoch's stores.
func (d *deployment) close() error {
	err := d.rt.Close()
	d.vendor.Wait()
	d.removeStores()
	return errors.Join(err, d.vendorErr)
}

func (d *deployment) removeStores() {
	if d.storeDir != "" {
		os.RemoveAll(d.storeDir)
	}
}

// flushShape is what one flush of a model at a row count demands, read off
// the demand tape and the model's op list.
type flushShape struct {
	rows int
	tape corr.Tape
	// macs is one pass of ring multiply-accumulates over every conv and
	// linear layer (each party performs a small multiple of it per flush).
	macs int64
	// acts are the activation slots of the program, per row.
	acts []actShape
}

// actShape is one distinct activation geometry and how many slots of each
// kind use it.
type actShape struct {
	c, hw      int
	relu, poly int
}

func (a actShape) elems() int { return a.c * a.hw * a.hw }

// reluElems and polyElems count activation elements of one flush by kind.
func (fs *flushShape) reluElems() (n int) {
	for _, a := range fs.acts {
		n += a.relu * a.elems() * fs.rows
	}
	return n
}

func (fs *flushShape) polyElems() (n int) {
	for _, a := range fs.acts {
		n += a.poly * a.elems() * fs.rows
	}
	return n
}

func traceFlushShape(sm *servedModel, rows int) (*flushShape, error) {
	prog, err := pi.Compile(sm.m.Net)
	if err != nil {
		return nil, err
	}
	tape, err := pi.TraceTapeMode(prog, []int{rows, demoC, demoHW, demoHW}, true)
	if err != nil {
		return nil, err
	}
	fs := &flushShape{rows: rows, tape: tape}
	for _, d := range tape {
		switch d.Kind {
		case corr.KindConv, corr.KindConvFixedB:
			fs.macs += int64(d.Conv.OutLen()) * int64(d.Conv.InC/kernel.NormGroups(d.Conv.Groups)) * int64(d.Conv.KH*d.Conv.KW)
		case corr.KindMatMul, corr.KindMatMulFixedB:
			fs.macs += int64(d.M) * int64(d.K) * int64(d.P)
		}
	}
	for _, op := range sm.m.Ops {
		if op.Kind != hwmodel.OpReLU && op.Kind != hwmodel.OpX2Act {
			continue
		}
		i := 0
		for ; i < len(fs.acts); i++ {
			if fs.acts[i].c == op.Shape.IC && fs.acts[i].hw == op.Shape.FI {
				break
			}
		}
		if i == len(fs.acts) {
			fs.acts = append(fs.acts, actShape{c: op.Shape.IC, hw: op.Shape.FI})
		}
		if op.Kind == hwmodel.OpReLU {
			fs.acts[i].relu++
		} else {
			fs.acts[i].poly++
		}
	}
	return fs, nil
}

// ---- layer probes -------------------------------------------------------
//
// Each probe calls one layer's public functions directly at the workload's
// own shapes and returns raw timings; probes.go turns them into metrics.

// probeDispatch times sched.Dispatcher alone: n one-row queries through a
// one-lane dispatcher whose session answers instantly. Returns seconds.
func probeDispatch(w *workload, n int) (float64, error) {
	policy := sched.RoundRobin
	if w.QueueAware {
		policy = sched.QueueAware
	}
	d := sched.NewDispatcher(sched.Options{Batch: w.Batch, Policy: policy})
	if err := d.AddShard(modelID, 0, stubSession{}); err != nil {
		return 0, err
	}
	x := tensor.New(1, demoC, demoHW, demoHW)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := d.Submit(modelID, x); err != nil {
			return 0, err
		}
	}
	sec := time.Since(start).Seconds()
	return sec, d.Close()
}

// stubSession is a sched.FlushSession that does no work.
type stubSession struct{}

func (stubSession) BeginFlush(batch *tensor.Tensor) (func() ([]float64, error), error) {
	out := make([]float64, batch.Shape[0]*demoClasses)
	return func() ([]float64, error) { return out, nil }, nil
}
func (stubSession) RemainingBudget() int { return -1 }
func (stubSession) Fallbacks() int       { return 0 }
func (stubSession) Close() error         { return nil }
func (stubSession) Kill()                {}

// probeSessionPair serves the pool through a direct pi.Session pair on the
// workload's link — no gateway, no scheduler — in the workload's sourcing
// mode. It returns the pair's set-up seconds and per-query milliseconds.
func probeSessionPair(sm *servedModel, w *workload, fs *flushShape, pool []*query, flushes int, scratch string) (setupS float64, queryMS []float64, err error) {
	const seed = 4177
	shape := []int{w.Rows, demoC, demoHW, demoHW}
	var dir string
	if w.StoreFed {
		if dir, err = os.MkdirTemp(scratch, "probe-stores-"); err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
		if _, err = pi.WriteStorePair(fs.tape, seed, shape, flushes, dir); err != nil {
			return 0, nil, err
		}
	}
	newSession := func(party int, conn transport.Conn, expect []int) (*pi.Session, error) {
		p := mpc.NewParty(party, conn, seed, seed*31+uint64(party)+1, fixed.Default64())
		sess, err := pi.NewSessionOpts(p, sm.m, expect, pi.SessionOptions{FixedMasks: true})
		if err != nil {
			return nil, err
		}
		if dir != "" {
			dp := pi.NewDirProvider(dir)
			if err := dp.Preload(party); err != nil {
				return nil, err
			}
			sess.UsePreprocessed(dp)
		}
		return sess, nil
	}
	c0, c1 := newLink(w.Delay)
	defer c0.Close()
	defer c1.Close()
	start := time.Now()
	serveErr := make(chan error, 1)
	go func() {
		sess0, err := newSession(0, c0, []int{0, demoC, demoHW, demoHW})
		if err != nil {
			c0.Close() // unblock the peer's set-up
			serveErr <- err
			return
		}
		serveErr <- sess0.Serve()
	}()
	sess1, err := newSession(1, c1, nil)
	if err != nil {
		c1.Close()
		return 0, nil, errors.Join(err, <-serveErr)
	}
	setupS = time.Since(start).Seconds()
	for i := 0; i < flushes; i++ {
		q := pool[i%len(pool)]
		t := time.Now()
		got, err := sess1.Query(q.x)
		if err != nil {
			c1.Close()
			return 0, nil, errors.Join(err, <-serveErr)
		}
		queryMS = append(queryMS, time.Since(t).Seconds()*1e3)
		if e := q.maxAbsErr(got); e > logitBound {
			return 0, nil, fmt.Errorf("direct session pair: logits off by %g", e)
		}
	}
	if err := sess1.Close(); err != nil {
		return 0, nil, err
	}
	return setupS, queryMS, <-serveErr
}

// mpcProbe is the cost of one pass of a protocol op over a set of shapes,
// as party 1 sees it.
type mpcProbe struct {
	sec           float64 // per pass
	elems         int     // per pass
	calls         int     // per pass
	frames, bytes int64   // per pass, both directions
}

// probeActivation runs op over every shape (count times each) for reps
// passes through mpc.RunProtocol and reports the mean pass. A positive
// delay moves the parties onto a link of the workload's wire model, so
// the pass pays the op's protocol rounds as a served query does. Inputs
// are shared outside the timed region.
func probeActivation(shapes [][]int, counts []int, reps int, delay time.Duration, op func(p *mpc.Party, x mpc.Share) error) (mpcProbe, error) {
	var out mpcProbe
	c0, c1 := newLink(delay)
	defer c0.Close()
	defer c1.Close()
	links := [2]transport.Conn{c0, c1}
	err := mpc.RunProtocol(7331, fixed.Default64(), func(p *mpc.Party) error {
		end := &linkEnd{party: p.ID}
		p.Conn = &timedConn{Conn: links[p.ID], end: end}
		r := rng.New(99)
		var sec float64
		var frames, bytes int64
		for rep := 0; rep < reps; rep++ {
			for i, shape := range shapes {
				x, err := shareRandom(p, r, shape)
				if err != nil {
					return err
				}
				f0, b0 := end.frames.Load(), end.bytes.Load()
				t := time.Now()
				for c := 0; c < counts[i]; c++ {
					if err := op(p, x); err != nil {
						return err
					}
				}
				sec += time.Since(t).Seconds()
				frames += end.frames.Load() - f0
				bytes += end.bytes.Load() - b0
				if rep == 0 && p.ID == 1 {
					out.elems += counts[i] * x.Len()
					out.calls += counts[i]
				}
			}
		}
		if p.ID == 1 {
			out.sec = sec / float64(reps)
			out.frames = frames / int64(reps)
			out.bytes = bytes / int64(reps)
		}
		return nil
	})
	return out, err
}

// shareRandom secret-shares a tensor of N(0, 0.5) values owned by party 1.
func shareRandom(p *mpc.Party, r *rng.RNG, shape []int) (mpc.Share, error) {
	var enc []uint64
	if p.ID == 1 {
		n := 1
		for _, d := range shape {
			n *= d
		}
		vals := make([]float64, n)
		r.FillNorm(vals, 0.5)
		enc = p.EncodeTensor(vals)
	}
	return p.ShareInput(1, enc, shape...)
}

func probeReLU(shapes [][]int, counts []int, reps int, delay time.Duration) (mpcProbe, error) {
	return probeActivation(shapes, counts, reps, delay, func(p *mpc.Party, x mpc.Share) error {
		_, err := p.ReLU(x)
		return err
	})
}

func probeMaxPool(shapes [][]int, counts []int, reps int, delay time.Duration) (mpcProbe, error) {
	return probeActivation(shapes, counts, reps, delay, func(p *mpc.Party, x mpc.Share) error {
		_, err := p.MaxPool2D(x, 2, 2, 2)
		return err
	})
}

func probeX2Act(shapes [][]int, counts []int, reps int, delay time.Duration) (mpcProbe, error) {
	prm := mpc.X2ActParams{W1: 0.1, W2: 1, B: 0, Scale: 1}
	return probeActivation(shapes, counts, reps, delay, func(p *mpc.Party, x mpc.Share) error {
		_, err := p.X2Act(x, prm)
		return err
	})
}

// probeLinearFixedW runs every conv and linear layer of one flush through
// mpc's fixed weight-mask protocol, fed from a prebuilt corr.Store as a
// provisioned session is, and returns the seconds of one pass as party 1
// sees it. Weight sharing and the F = W−b openings are outside the timed
// region, as they are in a session.
func probeLinearFixedW(fs *flushShape, reps int) (float64, error) {
	const seed = 7333
	var linear corr.Tape
	for _, d := range fs.tape {
		if d.Kind == corr.KindConvFixedB || d.Kind == corr.KindMatMulFixedB {
			linear = append(linear, d)
		}
	}
	// The store's fixed masks must be the ones the parties' dealers open
	// F = W−b against, so the mask seed is the dealer seed.
	s0, s1, err := corr.BuildPair(linear.Repeat(reps), rng.New(seed+1), seed)
	if err != nil {
		return 0, err
	}
	stores := [2]*corr.Store{s0, s1}
	var sec float64
	err = mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
		r := rng.New(101)
		type layer struct {
			d      corr.Demand
			w      mpc.Share
			fw     *mpc.FixedWeight
			xshape []int
		}
		var layers []layer
		for _, d := range linear {
			wshape, xshape := []int{d.K, d.P}, []int{d.M, d.K}
			if d.Kind == corr.KindConvFixedB {
				wshape = []int{d.Conv.KLen()}
				xshape = []int{d.Conv.N, d.Conv.InC, d.Conv.H, d.Conv.W}
			}
			var enc []uint64
			if p.ID == 0 {
				n := 1
				for _, v := range wshape {
					n *= v
				}
				vals := make([]float64, n)
				r.FillNorm(vals, 0.1)
				enc = p.EncodeTensor(vals)
			}
			w, err := p.ShareInput(0, enc, wshape...)
			if err != nil {
				return err
			}
			fw, err := p.OpenFixedW(d.Mask, w)
			if err != nil {
				return err
			}
			layers = append(layers, layer{d: d, w: w, fw: fw, xshape: xshape})
		}
		p.Source = stores[p.ID]
		var mine float64
		for rep := 0; rep < reps; rep++ {
			for _, l := range layers {
				x, err := shareRandom(p, r, l.xshape)
				if err != nil {
					return err
				}
				t := time.Now()
				if l.d.Kind == corr.KindConvFixedB {
					_, err = p.Conv2DFixedW(x, l.w, l.fw, l.d.Conv)
				} else {
					_, err = p.MatMulFixedW(x, l.w, l.fw)
				}
				if err != nil {
					return err
				}
				mine += time.Since(t).Seconds()
			}
		}
		if p.ID == 1 {
			sec = mine / float64(reps)
		}
		return nil
	})
	return sec, err
}

// probeDealer draws one flush's tape from a live mpc.Dealer, reps times,
// and returns the seconds of one draw.
func probeDealer(fs *flushShape, reps int) (float64, error) {
	d := mpc.NewDealer(7337, 1)
	draw := func() error {
		for _, dm := range fs.tape {
			var err error
			switch dm.Kind {
			case corr.KindHadamard:
				_, _, _, err = d.TakeHadamard(dm.N)
			case corr.KindSquare:
				_, _, err = d.TakeSquare(dm.N)
			case corr.KindMatMul:
				_, _, _, err = d.TakeMatMul(dm.M, dm.K, dm.P)
			case corr.KindConv:
				_, _, _, err = d.TakeConv(dm.Conv)
			case corr.KindBits:
				_, _, _, err = d.TakeBits(dm.N)
			case corr.KindMatMulFixedB:
				_, _, err = d.TakeMatMulFixedB(dm.Mask, dm.M, dm.K, dm.P)
			case corr.KindConvFixedB:
				_, _, err = d.TakeConvFixedB(dm.Mask, dm.Conv)
			default:
				err = fmt.Errorf("dealer probe: unknown demand %v", dm)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := draw(); err != nil { // mints the fixed masks
		return 0, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := draw(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(reps), nil
}

// probeOT runs a batch of n (1,4)-OTs between ot.Sender and ot.Receiver
// over a plain pipe and returns the seconds the batch took.
func probeOT(n int) (float64, error) {
	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	tables := make([][ot.NumChoices]byte, n)
	choices := make([]byte, n)
	r := rng.New(103)
	for i := range tables {
		choices[i] = byte(r.Uint64() % ot.NumChoices)
		for j := range tables[i] {
			tables[i][j] = byte(r.Uint64())
		}
	}
	start := time.Now()
	sendErr := make(chan error, 1)
	go func() { sendErr <- ot.Sender(c0, rng.New(105), tables) }()
	got, err := ot.Receiver(c1, rng.New(107), choices)
	if err != nil {
		c1.Close()
		return 0, errors.Join(err, <-sendErr)
	}
	sec := time.Since(start).Seconds()
	if err := <-sendErr; err != nil {
		return 0, err
	}
	for i, c := range choices {
		if got[i] != tables[i][c] {
			return 0, fmt.Errorf("ot probe: transfer %d returned the wrong message", i)
		}
	}
	return sec, nil
}

// probeKernel runs one pass of every conv and linear layer of the flush on
// the shared kernel, in the uint64 ring and in float64 (the type training
// uses), and returns the seconds of one pass each.
func probeKernel(fs *flushShape, reps int) (ringSec, f64Sec float64) {
	ringSec = kernelPass[uint64](fs, reps)
	f64Sec = kernelPass[float64](fs, reps)
	return ringSec, f64Sec
}

func kernelPass[T kernel.Elem](fs *flushShape, reps int) float64 {
	type layer struct {
		conv    *kernel.ConvShape
		m, k, n int
		x, w, y []T
	}
	var layers []layer
	for _, d := range fs.tape {
		switch d.Kind {
		case corr.KindConv, corr.KindConvFixedB:
			s := kernel.ConvShape{N: d.Conv.N, InC: d.Conv.InC, H: d.Conv.H, W: d.Conv.W,
				OutC: d.Conv.OutC, KH: d.Conv.KH, KW: d.Conv.KW, Stride: d.Conv.Stride, Pad: d.Conv.Pad, Groups: d.Conv.Groups}
			layers = append(layers, layer{conv: &s, x: make([]T, s.InLen()), w: make([]T, s.KLen()), y: make([]T, s.OutLen())})
		case corr.KindMatMul, corr.KindMatMulFixedB:
			layers = append(layers, layer{m: d.M, k: d.K, n: d.P, x: make([]T, d.M*d.K), w: make([]T, d.K*d.P), y: make([]T, d.M*d.P)})
		}
	}
	for _, l := range layers {
		for i := range l.x {
			l.x[i] = T(i%7 + 1)
		}
		for i := range l.w {
			l.w[i] = T(i%5 + 1)
		}
	}
	pass := func() {
		for _, l := range layers {
			if l.conv != nil {
				kernel.Conv2D(l.y, l.x, l.w, *l.conv)
			} else {
				kernel.MatMul(l.y, l.x, l.w, l.m, l.k, l.n)
			}
		}
	}
	pass()
	start := time.Now()
	for i := 0; i < reps; i++ {
		pass()
	}
	return time.Since(start).Seconds() / float64(reps)
}

// corrProbe is the offline cost of the flush's tape.
type corrProbe struct {
	buildSec   float64 // corr.BuildPair, per flush
	storeBytes int64   // both parties' encoded stores, per flush
	loadMBps   float64 // corr.ReadFile
}

// probeCorr builds, writes and reloads a store pair covering `flushes`
// flushes of the tape.
func probeCorr(fs *flushShape, flushes int, scratch string) (corrProbe, error) {
	var out corrProbe
	start := time.Now()
	s0, s1, err := corr.BuildPair(fs.tape.Repeat(flushes), rng.New(109), 109)
	if err != nil {
		return out, err
	}
	out.buildSec = time.Since(start).Seconds() / float64(flushes)
	out.storeBytes = int64(len(s0.Encode())+len(s1.Encode())) / int64(flushes)
	path := filepath.Join(scratch, "probe.pcs")
	if err := s1.WriteFile(path); err != nil {
		return out, err
	}
	defer os.Remove(path)
	st, err := os.Stat(path)
	if err != nil {
		return out, err
	}
	start = time.Now()
	if _, err := corr.ReadFile(path); err != nil {
		return out, err
	}
	out.loadMBps = float64(st.Size()) / 1e6 / time.Since(start).Seconds()
	return out, nil
}
