package gateway

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
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
	// Pipeline runs each shard pair on the phase-split pipelined flush
	// schedule (sched.PipelinedSession): flush n+1's input sharing
	// overlaps flush n's output reconstruction, hiding a protocol round
	// per flush. Bit-identical to the serialized schedule (the sched
	// equivalence suite pins this).
	Pipeline bool
	// QueueCap bounds each shard lane's pending queue in queries
	// (default 256); a submission to a full lane blocks, never drops.
	QueueCap int
	// Lifecycle, when non-nil, re-dials and re-provisions dead shard
	// pairs with backoff instead of retiring them, quarantining pairs
	// that keep dying. Revived pairs run fresh dealer streams and — when
	// the registry records a provisioning policy — fresh store pairs
	// under per-generation directories.
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
	// Reprovision, when non-nil, runs the background store re-provisioner:
	// a watcher that sees a store-backed shard's flush budget dropping
	// toward BudgetFloor, builds the next generation's store pair and
	// session off-path, and swaps the lane onto it without dropping
	// queries — so a fleet survives store exhaustion with zero shed load
	// instead of burning a pair death and a revival on it.
	Reprovision *ReprovisionOptions
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

// ReprovisionOptions tunes the background store re-provisioner.
type ReprovisionOptions struct {
	// BudgetFloor is the budget threshold that triggers building the next
	// generation (minimum 1), in the units ShardStatus.Budget reports:
	// remaining preprocessed correlations as stamped by the store (one
	// flush of an N-row geometry consumes one tape's worth). Size it to
	// several flushes' demand, so the swap lands before the lane runs dry.
	BudgetFloor int
	// Poll is how often shard budgets are checked (default 50ms).
	Poll time.Duration
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

	// Background re-provisioner lifecycle (nil/zero when disabled).
	stopProv chan struct{}
	provWG   sync.WaitGroup
	stopOnce sync.Once
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
				sess, err := rt.connectShard(spec, spec.Shards[i], 0, false)
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
	if opts.Reprovision != nil {
		rt.stopProv = make(chan struct{})
		rt.provWG.Add(1)
		go rt.reprovisionLoop(*opts.Reprovision)
	}
	return rt, nil
}

// connectShard establishes one shard's serving stack at a lifecycle
// generation: dial, hello handshake, session setup, store provider, and
// the flush-schedule wrapper the dispatcher drives. handoff marks the
// hello as a planned generation swap, which the vendor accepts while the
// previous link still serves (a revival hello would be rejected until
// the vendor notices the torn pair).
func (rt *Router) connectShard(spec *ModelSpec, desc ShardDesc, gen int, handoff bool) (sched.FlushSession, error) {
	conn, err := rt.dial(desc)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial model %q shard %d: %w", desc.Model, desc.Shard, err)
	}
	// Wire accounting wraps the link before anything is sent on it, so
	// the counters see every frame of the shard's protocol — hello and
	// weight sharing included. Handoff/revival generations of one lane
	// share the lane's series: the lane's traffic is one time series
	// regardless of which generation carried it.
	if rt.opts.Obs != nil {
		conn = obs.InstrumentConn(conn, rt.opts.Obs,
			"model", desc.Model, "shard", strconv.Itoa(desc.Shard))
	}
	// Hello handshake: name the (model, shard) — and, for revivals and
	// handoffs, the generation — this link serves, then wait for the
	// vendor's acceptance before the expensive weight sharing. A non-empty
	// reply is the vendor's rejection reason.
	hello := []int{desc.Shard}
	if gen > 0 {
		hello = append(hello, gen)
	}
	if handoff {
		hello = append(hello, 1)
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
		// A retry-tagged rejection (the prior generation's link is still
		// live — the vendor has not yet noticed the torn pair, perhaps
		// deep in a compute between conn ops) is not a failing endpoint:
		// tell the lifecycle to back off without a strike instead of
		// marching a healthy shard toward quarantine.
		if gen > 0 && strings.HasPrefix(string(ack), RetryableAckPrefix) {
			return nil, fmt.Errorf("gateway: vendor rejected model %q shard %d: %s: %w", desc.Model, desc.Shard, ack, sched.ErrReviveLater)
		}
		return nil, fmt.Errorf("gateway: vendor rejected model %q shard %d: %s", desc.Model, desc.Shard, ack)
	}
	// Revived generations mirror the vendor's derivation: fresh dealer
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
	p := mpc.NewParty(1, conn, seed, shardPrivSeed(seed, 1), fixed.Default64())
	sess, err := pi.NewSessionOpts(p, spec.Model, nil, pi.SessionOptions{FixedMasks: rt.reg.FixedMasks()})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("gateway: model %q shard %d session: %w", desc.Model, desc.Shard, err)
	}
	if rt.opts.Obs != nil {
		sess.Instrument(rt.opts.Obs,
			"model", desc.Model, "shard", strconv.Itoa(desc.Shard))
	}
	// Bound every in-flush receive: a vendor stalled mid-protocol fails
	// this pair with a deadline error instead of wedging its lane worker.
	sess.SetFlushDeadline(rt.opts.FlushDeadline)
	if storeDir != "" {
		dp := pi.NewDirProvider(storeDir)
		// Deserialization belongs to setup, not to any flush's online path.
		if err := dp.Preload(1); err != nil {
			conn.Close()
			return nil, fmt.Errorf("gateway: model %q shard %d: %w", desc.Model, desc.Shard, err)
		}
		sess.UsePreprocessed(dp)
	}
	if rt.opts.Pipeline {
		return sched.NewPipelinedSession(sess, conn), nil
	}
	return sched.NewSerializedSession(sess, conn), nil
}

// reviveShard is the lifecycle's ReviveFunc: re-provision the shard's
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
	return rt.connectShard(spec, desc, gen, false)
}

// reprovisionLoop is the background store re-provisioner: it polls shard
// budgets and, when a healthy store-backed lane's remaining flushes drop
// below the floor, builds the next generation — fresh store pair, fresh
// dealer stream, fresh session via a handoff hello the vendor accepts
// while the old link still serves — and swaps the lane onto it in-order
// through the dispatch queue. Queries keep flowing the whole time; the
// only lane downtime is the swap marker's turn in the queue.
func (rt *Router) reprovisionLoop(opts ReprovisionOptions) {
	defer rt.provWG.Done()
	poll := opts.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	floor := opts.BudgetFloor
	if floor < 1 {
		floor = 1
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	// swapped remembers the newest generation this loop already built per
	// lane, so one slow budget drain doesn't trigger a second build while
	// the first swap still rides the queue.
	swapped := map[string]int{}
	for {
		select {
		case <-rt.stopProv:
			return
		case <-ticker.C:
		}
		for _, st := range rt.disp.Status() {
			if st.Down != "" || st.Quarantined || st.Budget < 0 || st.Budget >= floor {
				continue
			}
			key := fmt.Sprintf("%s/%d", st.Model, st.Shard)
			if swapped[key] > st.Gen {
				continue // next generation already built and queued
			}
			// One budget-low event per triggering generation: the swapped
			// guard above already dedups the build, so reaching this point
			// is exactly the once-per-drain decision worth recording.
			rt.opts.Obs.Event("budget-low", st.Model, st.Shard,
				"budget %d below floor %d; building next generation", st.Budget, floor)
			gen, err := rt.disp.NextGen(st.Model, st.Shard)
			if err != nil {
				continue
			}
			sess, err := rt.handoffSession(st.Model, st.Shard, gen)
			if err != nil {
				continue // retried next tick; the burned gen stays burned
			}
			if err := rt.disp.SwapSession(st.Model, st.Shard, gen, sess); err != nil {
				sess.Kill()
				continue
			}
			swapped[key] = gen
		}
	}
}

// handoffSession builds one shard's next-generation serving stack while
// the previous generation still serves: re-provision the generation's
// store pair (when a provisioning policy exists) and connect with a
// handoff hello.
func (rt *Router) handoffSession(model string, shard, gen int) (sched.FlushSession, error) {
	spec, err := rt.reg.Lookup(model)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(spec.Shards) {
		return nil, fmt.Errorf("gateway: model %q has no shard %d to re-provision", model, shard)
	}
	desc := spec.Shards[shard]
	if desc.StoreDir != "" && rt.reg.Provision() != nil {
		if _, err := ReprovisionShardStore(rt.reg, model, shard, gen); err != nil {
			return nil, err
		}
	}
	return rt.connectShard(spec, desc, gen, true)
}

// shardPrivSeed derives a party's private randomness seed for one shard
// pair generation. It only needs to differ from the peer's; deriving it
// from the pair's dealer seed keeps deployments reproducible.
func shardPrivSeed(seed uint64, party int) uint64 {
	return rng.MixSeed(seed, 0x9e3779b9, uint64(party)+1)
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
// router is closed or every shard is down.
func (rt *Router) SubmitAsync(model string, x *tensor.Tensor) func() ([]float64, error) {
	spec, err := rt.reg.Lookup(model)
	if err != nil {
		return failedWait(err)
	}
	if _, err := spec.ValidateQuery(x.Shape); err != nil {
		return failedWait(err)
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

// Close shuts the router down gracefully: the background re-provisioner
// (if any) stops first, then new submissions are rejected with a
// descriptive error, everything already queued drains through final
// flushes, each healthy pair gets the end-of-session sentinel, and the
// links close. The first close failure on a healthy pair is returned —
// a shutdown that could not close cleanly should be visible, not
// swallowed. Idempotent, and safe to race with submissions.
func (rt *Router) Close() error {
	if rt.stopProv != nil {
		rt.stopOnce.Do(func() { close(rt.stopProv) })
		rt.provWG.Wait()
	}
	return rt.disp.Close()
}

// failedWait adapts an immediate routing error to the wait-function shape.
func failedWait(err error) func() ([]float64, error) {
	return func() ([]float64, error) { return nil, err }
}
