package gateway

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/pi"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// RouterOptions configures a Router's per-shard serving stack and its
// dispatch scheduler.
type RouterOptions struct {
	// Batch is each shard lane's max queries per flush (minimum 1).
	Batch int
	// Window is how long a flush that already has work waits for more
	// queries to fill the batch. The dispatcher is work-conserving —
	// whatever is queued flushes the moment its lane's session is free —
	// so zero (the default) never strands work; a positive window only
	// trades a little latency for fuller batches.
	Window time.Duration
	// Policy picks shards: sched.RoundRobin (default, the pre-scheduler
	// behavior) or sched.QueueAware (queue depth × EWMA flush latency).
	Policy sched.Policy
	// Deprecated: Pipeline is ignored — every shard pair runs its flushes
	// serialized (sched.SerializedSession). The field goes with the next
	// change to the benchmark module, its last caller.
	Pipeline bool
	// QueueCap bounds each shard lane's pending queue in queries
	// (default 256); a submission to a full lane blocks, never drops.
	QueueCap int
	// Lifecycle, when non-nil, moves shard pairs to fresh generations:
	// dead pairs are re-dialed with backoff instead of retired
	// (quarantining pairs that keep dying), and with a BudgetFloor live
	// pairs roll over before their stores run dry. Every new generation
	// runs a fresh dealer stream and — when the registry records a
	// provisioning policy — a fresh store pair under its own directory.
	Lifecycle *sched.LifecycleOptions
	// FlushDeadline bounds every receive a shard session performs inside
	// one flush: a vendor that goes silent mid-flush poisons its pair with
	// a deadline error — triggering failover and lifecycle revival —
	// instead of wedging the lane's worker forever. Zero (the default)
	// leaves receives unbounded. Deploy the matching vendor-side bound
	// with Registry.SetFlushDeadline.
	FlushDeadline time.Duration
	// QueueTarget sheds a query at admission when its estimated completion
	// time (queue depth plus in-flight work, scaled by the model's
	// calibrated flush-latency model) exceeds the target: under sustained
	// overload, queries fail fast with sched.ErrShed instead of queueing
	// into multi-second latency for everyone. Zero disables the bound. An
	// uncalibrated fleet (no flush observed yet) admits everything.
	QueueTarget time.Duration
	// ModelQuotas caps each model's in-flight admitted queries; a query
	// arriving at the cap is shed with sched.ErrShed. Zero/absent models
	// are unbounded.
	ModelQuotas map[string]int
	// Obs, when non-nil, instruments the whole serving stack onto one
	// metrics registry: every shard link is wrapped in an obs.WireConn
	// (per-kind wire bytes/frames both directions plus protocol rounds),
	// every session publishes flush-phase latency histograms and reports
	// per-op timings to the registry's OpFeed (see HarvestLUT),
	// the dispatcher's admission/queue/EWMA bookkeeping lands on the same
	// registry, and lifecycle transitions are recorded in its event ring.
	// Nil disables export; the scheduler's bookkeeping still works.
	Obs *obs.Registry
	// Dial opens the party-1 side of one shard's 2PC link. Nil dials
	// desc.Endpoint over TCP; in-process deployments pass a Loopback's
	// Dial, tests substitute pipes.
	Dial func(desc ShardDesc) (transport.Conn, error)
}

// ShardStatus is one shard lane's routing and scheduling snapshot — the
// dispatcher's own status type, aliased so the two layers can never
// drift field-by-field.
type ShardStatus = sched.ShardStatus

// Router demultiplexes client queries for many registered models across
// independent 2PC session pairs. Every (model, shard) gets its own
// persistent session and bounded dispatch lane; a sched.Dispatcher picks
// the lane per query (round-robin or queue-aware), fails queries over
// when a pair dies, and — with a lifecycle enabled — revives dead pairs
// on fresh streams instead of retiring them. It is the layer
// cmd/pasnet-server's gateway role serves clients through.
type Router struct {
	reg  *Registry
	opts RouterOptions
	disp *sched.Dispatcher
	dial func(desc ShardDesc) (transport.Conn, error)
}

// NewRouter connects and sets up every registered shard: per (model,
// shard) it dials the shard's party-0 peer, performs the hello handshake
// naming the shard, establishes the persistent session (one-time weight
// sharing), installs the shard's preprocessed store provider, and
// registers the lane with the dispatcher. Shards connect concurrently;
// any failure tears everything down and surfaces the first error.
func NewRouter(reg *Registry, opts RouterOptions) (*Router, error) {
	if opts.Batch < 1 {
		opts.Batch = 1
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(desc ShardDesc) (transport.Conn, error) {
			if desc.Endpoint == "" {
				return nil, fmt.Errorf("gateway: model %q shard %d has no endpoint and no dialer", desc.Model, desc.Shard)
			}
			return transport.Dial(desc.Endpoint)
		}
	}
	rt := &Router{
		reg:  reg,
		opts: opts,
		dial: dial,
		disp: sched.NewDispatcher(sched.Options{
			Batch:       opts.Batch,
			Window:      opts.Window,
			Policy:      opts.Policy,
			QueueCap:    opts.QueueCap,
			QueueTarget: opts.QueueTarget,
			ModelQuotas: opts.ModelQuotas,
			Obs:         opts.Obs,
		}),
	}
	// Connect concurrently into pre-sized slots, then register lanes in
	// (model, shard) order: lane order fixes both the Status layout and
	// the round-robin rotation, which must not depend on connection
	// completion order.
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	slots := map[string][]sched.FlushSession{}
	specs := map[string]*ModelSpec{}
	for _, id := range reg.Models() {
		spec, err := reg.Lookup(id)
		if err != nil {
			return nil, err
		}
		specs[id] = spec
		slots[id] = make([]sched.FlushSession, len(spec.Shards))
	}
	for _, id := range reg.Models() {
		spec := specs[id]
		lanes := slots[id]
		for i := range spec.Shards {
			wg.Add(1)
			go func(spec *ModelSpec, lanes []sched.FlushSession, i int) {
				defer wg.Done()
				sess, err := rt.connectShard(spec, spec.Shards[i], 0)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				lanes[i] = sess
			}(spec, lanes, i)
		}
	}
	wg.Wait()
	if firstErr != nil {
		for _, lanes := range slots {
			for _, sess := range lanes {
				if sess != nil {
					sess.Kill()
				}
			}
		}
		return nil, firstErr
	}
	for _, id := range reg.Models() {
		for i, sess := range slots[id] {
			if err := rt.disp.AddShard(id, i, sess); err != nil {
				return nil, err
			}
		}
	}
	if opts.Lifecycle != nil {
		rt.disp.EnableLifecycle(rt.reviveShard, *opts.Lifecycle)
	}
	return rt, nil
}

// connectShard establishes one shard's serving stack at a lifecycle
// generation: dial, hello handshake, session setup, store provider, and
// the flush-schedule wrapper the dispatcher drives.
func (rt *Router) connectShard(spec *ModelSpec, desc ShardDesc, gen int) (sched.FlushSession, error) {
	conn, err := rt.dial(desc)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial model %q shard %d: %w", desc.Model, desc.Shard, err)
	}
	// Wire accounting wraps the link before anything is sent on it, so
	// the counters see every frame of the shard's protocol — hello and
	// weight sharing included. All generations of one lane share the
	// lane's series: the lane's traffic is one time series
	// regardless of which generation carried it.
	if rt.opts.Obs != nil {
		conn = obs.InstrumentConn(conn, rt.opts.Obs,
			"model", desc.Model, "shard", strconv.Itoa(desc.Shard))
	}
	// Bring-up — hello, ack and weight-sharing setup — runs under the flush
	// deadline, so a vendor that accepts and then stalls fails the build
	// instead of wedging NewRouter or the lifecycle forever. Setup is a
	// constant few hops, so it fits a flush-sized bound; the ack wait also
	// covers the vendor's own store build for a later generation, which it
	// skips when the pair's files are already in place.
	setDeadline(conn, rt.opts.FlushDeadline)
	// Hello handshake: name the (model, shard) — and, past generation 0,
	// the generation — this link serves, then wait for the vendor's
	// acceptance before the expensive weight sharing. A non-empty reply
	// is the vendor's rejection reason.
	hello := []int{desc.Shard}
	if gen > 0 {
		hello = append(hello, gen)
	}
	if err := conn.SendModelShape(desc.Model, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("gateway: shard hello: %w", err)
	}
	ack, err := conn.RecvBytes()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("gateway: shard hello ack: %w", err)
	}
	if len(ack) > 0 {
		conn.Close()
		return nil, fmt.Errorf("gateway: vendor rejected model %q shard %d: %s", desc.Model, desc.Shard, ack)
	}
	// Later generations mirror the vendor's derivation: fresh dealer
	// stream, and a fresh per-generation store pair when a provisioning
	// policy exists (the live dealer otherwise).
	seed := ReviveSeed(desc.Seed, gen)
	storeDir := desc.StoreDir
	if gen > 0 && storeDir != "" {
		if rt.reg.Provision() != nil {
			storeDir = GenStoreDir(desc, gen)
		} else {
			storeDir = ""
		}
	}
	p := mpc.NewParty(1, conn, seed, privSeed(), fixed.Default64())
	sess, err := pi.NewSessionOpts(p, spec.Model, nil, pi.SessionOptions{})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("gateway: model %q shard %d session: %w", desc.Model, desc.Shard, err)
	}
	// Serving bounds each flush itself; between flushes the link may idle.
	setDeadline(conn, 0)
	if rt.opts.Obs != nil {
		sess.Instrument(rt.opts.Obs,
			"model", desc.Model, "shard", strconv.Itoa(desc.Shard))
	}
	// Bound every in-flush receive: a vendor stalled mid-protocol fails
	// this pair with a deadline error instead of wedging its lane worker.
	sess.SetFlushDeadline(rt.opts.FlushDeadline)
	if storeDir != "" {
		dp := pi.NewDirProvider(storeDir)
		// Installed first, the provider binds each store to the session
		// as it decodes: deserialization and party 1's linear-layer
		// output shares belong to setup, not to any flush's online path.
		sess.UsePreprocessed(dp)
		if err := dp.Preload(1); err != nil {
			conn.Close()
			return nil, fmt.Errorf("gateway: model %q shard %d: %w", desc.Model, desc.Shard, err)
		}
	}
	return sched.NewSerializedSession(sess, conn), nil
}

// reviveShard is the lifecycle's ReviveFunc, the one builder of every
// generation past 0 — revival or rollover: re-provision the shard's
// store pair for the new generation (when a provisioning policy exists)
// and re-dial the pair at that generation.
func (rt *Router) reviveShard(model string, shard, gen int) (sched.FlushSession, error) {
	spec, err := rt.reg.Lookup(model)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(spec.Shards) {
		return nil, fmt.Errorf("gateway: model %q has no shard %d to revive", model, shard)
	}
	desc := spec.Shards[shard]
	if desc.StoreDir != "" && rt.reg.Provision() != nil {
		if _, err := ReprovisionShardStore(rt.reg, model, shard, gen); err != nil {
			return nil, err
		}
	}
	return rt.connectShard(spec, desc, gen)
}

// setDeadline bounds every receive and send on conn to d from now, or
// lifts both bounds when d is not positive. Both shard ends bring a link
// up under it (connectShard, ServeShardConn) and clear it before serving.
func setDeadline(conn transport.Conn, d time.Duration) {
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	_ = conn.SetReadDeadline(t)
	_ = conn.SetWriteDeadline(t)
}

// privSeed draws a serving party's private randomness seed from
// crypto/rand: serving never draws from Party.Rand, and a seed derived
// from the pair's dealer seed is one the peer can compute.
func privSeed() uint64 {
	var b [8]byte
	crand.Read(b[:]) // never fails: it crashes the program instead
	return binary.LittleEndian.Uint64(b[:])
}

// Submit routes one query to the named model and blocks for its logits.
func (rt *Router) Submit(model string, x *tensor.Tensor) ([]float64, error) {
	return rt.SubmitAsync(model, x)()
}

// SubmitAsync routes one query and returns a wait function, so a
// connection reader can enqueue a stream of queries before collecting
// any reply. The enqueue itself applies backpressure: on a saturated
// fleet (the picked lane's queue at QueueCap), SubmitAsync blocks until
// a slot opens — callers that must never stall should not also be
// responsible for draining a dispatch queue. The query is validated
// against the model's registered geometry before it can touch any
// dispatch lane; the dispatcher then picks the shard, fails the query
// over if its pair dies mid-flush, and rejects it descriptively once the
// router is closed or every shard is down. A NaN or infinite value is
// rejected with the shape check: the fixed-point encoding would turn it
// into an arbitrary ring element and the client into garbage logits.
func (rt *Router) SubmitAsync(model string, x *tensor.Tensor) func() ([]float64, error) {
	spec, err := rt.reg.Lookup(model)
	if err != nil {
		return failedWait(err)
	}
	if _, err := spec.ValidateQuery(x.Shape); err != nil {
		return failedWait(err)
	}
	for i, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return failedWait(fmt.Errorf("gateway: model %q query value %d is %v; queries must be finite", model, i, v))
		}
	}
	return rt.disp.SubmitAsync(model, x)
}

// Status snapshots every shard lane's routing and scheduling bookkeeping,
// grouped by model in registration order.
func (rt *Router) Status() []ShardStatus {
	return rt.disp.Status()
}

// HarvestLUT fits the router's per-op latency feed into a hwmodel.LUT
// (hwmodel.FitLUT) under the given hardware config — live recalibration
// from a serving fleet, without autodeploy's owned probe transport. The
// router must have been built with Obs; the feed must have accumulated
// samples (serve some queries first). The returned LUT passes the same
// validation a calibrated artifact does and plugs straight into
// nas.Options.LUT or hwmodel.WriteFile.
func (rt *Router) HarvestLUT(hw hwmodel.Config, source string) (*hwmodel.LUT, error) {
	if rt.opts.Obs == nil {
		return nil, fmt.Errorf("gateway: router has no obs registry to harvest from")
	}
	return rt.opts.Obs.OpFeed().HarvestLUT(hw, source)
}

// Close shuts the router down gracefully: new submissions are rejected
// with a descriptive error, lifecycle generation changes stop, everything
// already queued drains through final flushes, each healthy pair gets the
// end-of-session sentinel, and the links close. The first close failure on a healthy pair is returned —
// a shutdown that could not close cleanly should be visible, not
// swallowed. Idempotent, and safe to race with submissions.
func (rt *Router) Close() error {
	return rt.disp.Close()
}

// failedWait adapts an immediate routing error to the wait-function shape.
func failedWait(err error) func() ([]float64, error) {
	return func() ([]float64, error) { return nil, err }
}
