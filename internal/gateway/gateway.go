// Package gateway is the multi-model shard-routing subsystem in front of
// the pi.Session stack: it multiplexes client queries for many
// registered models (and many shards of one model) across independent 2PC
// session pairs, so a deployment serves heterogeneous traffic concurrently
// without touching any single pair's online latency.
//
// A Registry maps model IDs to shard descriptors — the trained model, its
// query geometry, and per shard the party-pair dealer seed, the 2PC
// endpoint, and the shard's preprocessed correlation store directory. A
// Router owns one persistent pi.Session plus request batcher per (model,
// shard), routes each query round-robin across its model's healthy shards,
// and fails a query over to the next shard when a session pair dies (a
// store running dry, a torn connection). Each shard is provisioned its own
// correlation store through a per-(model, shard) pi.SourceProvider
// (WriteShardStores), so shard fan-out multiplies offline generation only
// — the online path of every pair still just replays its own store, and
// the per-flush source-stamp round still fails mixed provisioning loudly
// per shard.
package gateway

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/nn"
	"pasnet/internal/pi"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// MaxModelID bounds a registered model identifier, matching the transport
// layer's model+shape control-frame field.
const MaxModelID = 64

// DefaultRowCap bounds the rows of one client query when a ModelSpec does
// not set its own cap.
const DefaultRowCap = 16

// ShardDesc describes one shard of a registered model: an independent 2PC
// party pair serving that model, with its own dealer stream and its own
// preprocessed correlation store.
type ShardDesc struct {
	// Model is the owning model's registry ID.
	Model string
	// Shard is the shard index within the model, dense from 0.
	Shard int
	// Seed is the dealer seed shared by this shard's party pair. Distinct
	// shards must use distinct seeds so no two pairs share correlation
	// randomness (ShardSeed derives them).
	Seed uint64
	// StoreDir is this shard's preprocessed correlation store directory;
	// empty keeps the shard's pair on the live dealer.
	StoreDir string
	// Endpoint is the party-0 address the router dials for this shard.
	// Empty means the deployment supplies connections itself (in-process
	// loopback, or a custom RouterOptions.Dial).
	Endpoint string
}

// ModelSpec is one registered model: the trained network every shard pair
// of this model secret-shares, its query geometry, and its shards.
type ModelSpec struct {
	// ID names the model on the wire (client query frames carry it).
	ID string
	// Model is the trained backbone all shards serve.
	Model *models.Model
	// Input is the C×H×W geometry of one query row.
	Input []int
	// RowCap bounds the rows of a single client query (0 = DefaultRowCap).
	RowCap int
	// Shards is the model's shard set, indexed densely from 0.
	Shards []ShardDesc
}

// rowCap resolves the effective per-query row bound.
func (spec *ModelSpec) rowCap() int {
	if spec.RowCap > 0 {
		return spec.RowCap
	}
	return DefaultRowCap
}

// RowElems is the element count of one query row.
func (spec *ModelSpec) RowElems() int {
	n := 1
	for _, d := range spec.Input {
		n *= d
	}
	return n
}

// MaxQueryElems is the largest legal query payload for this model — the
// row cap times one row's elements. Serving loops use it as the bounded
// drain size for rejected queries.
func (spec *ModelSpec) MaxQueryElems() int {
	return spec.rowCap() * spec.RowElems()
}

// ValidateQuery bounds a client-supplied query shape before any
// allocation: geometry must match the model exactly and the row count must
// stay within the cap. It returns the exact payload element count, which
// callers feed to the transport's bounded receive.
func (spec *ModelSpec) ValidateQuery(shape []int) (elems int, err error) {
	rows, geom := 1, shape
	if len(shape) == 4 {
		rows, geom = shape[0], shape[1:]
	}
	if len(geom) != 3 || geom[0] != spec.Input[0] || geom[1] != spec.Input[1] || geom[2] != spec.Input[2] {
		return 0, fmt.Errorf("gateway: query shape %v does not match model %q input geometry %v", shape, spec.ID, spec.Input)
	}
	if rows < 1 || rows > spec.rowCap() {
		return 0, fmt.Errorf("gateway: model %q query batch rows %d outside [1, %d]", spec.ID, rows, spec.rowCap())
	}
	return rows * spec.RowElems(), nil
}

// Registry maps model IDs to their specs. Registration happens before
// serving; lookups are concurrency-safe.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]*ModelSpec
	order []string
	// seeds tracks every registered shard's dealer seed registry-wide
	// (value: "model/shard"), so no two pairs — of any model — can ever
	// share a correlation stream.
	seeds map[uint64]string
	// claims records each (model, shard) pair's newest claimed lifecycle
	// generation. Every generation runs its own one-time correlation
	// stream (ReviveSeed), so a hello may only claim a generation strictly
	// newer than every earlier claim: a replayed or duplicate hello would
	// run a stream a second time, with different inputs. A newer claim
	// supersedes whatever link served before — a revival of a dead pair
	// or a rollover of a live one alike.
	claims map[string]int
	// provision remembers the parameters of the last store provisioning
	// (WriteShardStores / SetProvision), so revived shards can be
	// re-provisioned a fresh store pair instead of degrading to the live
	// dealer. Nil: revived shards run live.
	provision *ProvisionPolicy
	// tapes caches demand tapes per (model, geometry) and progs compiled
	// programs per model across provisioning runs, so a revival never
	// re-traces — or recompiles — what a prior run already did.
	tapes map[string]corr.Tape
	progs map[string]*pi.Program
	// provMu serializes store (re-)provisioning within this process.
	provMu sync.Mutex
	// flushDeadline bounds every receive a vendor session performs inside
	// one flush (pi.Session.SetFlushDeadline); zero leaves receives
	// unbounded. The gateway side configures its own sessions through
	// RouterOptions.FlushDeadline.
	flushDeadline time.Duration
	// logf, when set, receives Register's per-model comparison line.
	logf func(format string, args ...any)
}

// ProvisionPolicy records how shard stores are provisioned: which flush
// batch geometries are covered and how many flushes each store holds.
type ProvisionPolicy struct {
	Batches []int
	Flushes int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: map[string]*ModelSpec{}, seeds: map[uint64]string{}, claims: map[string]int{}, tapes: map[string]corr.Tape{}, progs: map[string]*pi.Program{}}
}

// SetProvision records the store-provisioning policy without writing
// stores — the two-process deployment shape, where the preprocess role
// wrote the files and the serving processes only need to know the
// parameters to re-provision revived shards consistently on both sides.
func (r *Registry) SetProvision(batches []int, flushes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.provision = &ProvisionPolicy{Batches: append([]int(nil), batches...), Flushes: flushes}
}

// Provision returns the recorded provisioning policy (nil: none).
func (r *Registry) Provision() *ProvisionPolicy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.provision
}

// SetFlushDeadline bounds every receive a vendor serving session performs
// inside one flush: a peer that goes silent mid-flush fails the session
// with a deadline error instead of wedging the serving goroutine forever.
// Zero (the default) leaves receives unbounded.
func (r *Registry) SetFlushDeadline(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushDeadline = d
}

// FlushDeadline returns the configured vendor-side flush deadline.
func (r *Registry) FlushDeadline() time.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.flushDeadline
}

// SetLogf installs the registry's log: Register then reports, for each
// model, how many ReLU layers run the narrow comparison and their least
// headroom (see reluWidths) — the signal an operator needs when a model's
// data drifts. Nil (the default) is silent.
func (r *Registry) SetLogf(logf func(format string, args ...any)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logf = logf
}

// reluWidths reports how many of net's ReLU layers the serving codec runs
// on the narrow mpc.NarrowBits-bit comparison rather than the 63-bit one,
// out of how many, and the least headroom among the narrow ones:
// 2^NarrowBits ulp over the layer's recorded input bound
// (mpc.ReLUHeadroom), 0 when none runs narrow. A served input past that
// range is compared wrongly.
func reluWidths(net *nn.Network) (narrow, total int, least float64) {
	codec := fixed.Default64()
	for _, l := range net.ReLUs() {
		total++
		if h := mpc.ReLUHeadroom(codec, l.Bound); h > mpc.NarrowMargin {
			if narrow++; narrow == 1 || h < least {
				least = h
			}
		}
	}
	return narrow, total, least
}

// SetFixedMasks does nothing: every shard session and store runs the
// fixed weight-mask protocol.
//
// Deprecated: the mode is gone. SetFixedMasks goes with the next change to
// the benchmark module, its last caller.
func (r *Registry) SetFixedMasks(bool) {}

// claimShard reserves one (model, shard) pair at a lifecycle generation
// for a vendor link, rejecting any generation at or below one already
// claimed.
func (r *Registry) claimShard(model string, shard, gen int) error {
	key := fmt.Sprintf("%s/%d", model, shard)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.claims[key]; ok && gen <= prev {
		return fmt.Errorf("gateway: model %q shard %d was already served at generation %d — a new link must claim a strictly newer generation, or it would re-run a one-time correlation stream", model, shard, prev)
	}
	r.claims[key] = gen
	return nil
}

// Register validates and adds one model spec. Shard Model/Shard fields may
// be left zero: they are stamped from the spec during registration.
func (r *Registry) Register(spec *ModelSpec) error {
	if spec.ID == "" || len(spec.ID) > MaxModelID {
		return fmt.Errorf("gateway: model id %q must be 1..%d bytes", spec.ID, MaxModelID)
	}
	if spec.Model == nil || spec.Model.Net == nil {
		return fmt.Errorf("gateway: model %q has no trained network", spec.ID)
	}
	// Dims must be positive: a non-positive dim would make MaxQueryElems
	// non-positive, which disables the bounded receives sized from it.
	if len(spec.Input) != 3 || spec.Input[0] < 1 || spec.Input[1] < 1 || spec.Input[2] < 1 {
		return fmt.Errorf("gateway: model %q input geometry %v is not a positive C×H×W", spec.ID, spec.Input)
	}
	if len(spec.Shards) == 0 {
		return fmt.Errorf("gateway: model %q registers no shards", spec.ID)
	}
	if err := probeGeometry(spec); err != nil {
		return err
	}
	for i := range spec.Shards {
		d := &spec.Shards[i]
		d.Model = spec.ID
		d.Shard = i
	}
	logf, err := r.add(spec)
	if err != nil {
		return err
	}
	if logf != nil {
		narrow, total, least := reluWidths(spec.Model.Net)
		line := fmt.Sprintf("gateway: model %q: %d of %d ReLU layers compare %d bits", spec.ID, narrow, total, mpc.NarrowBits)
		if narrow > 0 {
			line += fmt.Sprintf(", least headroom %.2f× over the recorded input bound", least)
		}
		logf("%s", line)
	}
	return nil
}

// add commits a validated spec under the registry lock and returns the
// registry's log, which Register calls after the lock is released.
func (r *Registry) add(spec *ModelSpec) (logf func(format string, args ...any), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.specs[spec.ID]; ok {
		return nil, fmt.Errorf("gateway: model %q already registered", spec.ID)
	}
	// Seed uniqueness is registry-wide: two pairs sharing a dealer seed —
	// even across models — would draw identical correlation streams,
	// undermining the independence of the two protocol executions. Check
	// everything before committing anything, so a rejected spec leaves no
	// orphan seed reservations behind.
	fresh := map[uint64]string{}
	for i, d := range spec.Shards {
		owner := fmt.Sprintf("%s/%d", spec.ID, i)
		if prev, dup := r.seeds[d.Seed]; dup {
			return nil, fmt.Errorf("gateway: model %q shard %d shares dealer seed %d with %s — every pair needs its own correlation stream", spec.ID, i, d.Seed, prev)
		}
		if prev, dup := fresh[d.Seed]; dup {
			return nil, fmt.Errorf("gateway: model %q shard %d shares dealer seed %d with %s — every pair needs its own correlation stream", spec.ID, i, d.Seed, prev)
		}
		fresh[d.Seed] = owner
	}
	for seed, owner := range fresh {
		r.seeds[seed] = owner
	}
	r.specs[spec.ID] = spec
	r.order = append(r.order, spec.ID)
	return r.logf, nil
}

// probeGeometry verifies at registration time that the declared query
// geometry actually drives the trained network: one zero query row is
// forwarded in plaintext under recover. Dimension checks alone cannot do
// this — GAP-based backbones are spatially polymorphic, so the only
// faithful test of "would the first flush succeed" is running the net. A
// programmatically assembled spec whose geometry mismatches its network
// (wrong channel count, a VGG resolution its flatten→linear dims reject)
// therefore fails here, at registration, instead of killing the first
// serving flush of every shard.
func probeGeometry(spec *ModelSpec) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gateway: model %q input geometry %v does not drive its trained network: %v", spec.ID, spec.Input, r)
		}
	}()
	out := spec.Model.Net.Forward(tensor.New(append([]int{1}, spec.Input...)...), false)
	if out == nil || len(out.Shape) != 2 || out.Shape[0] != 1 || out.Shape[1] < 1 {
		shape := []int(nil)
		if out != nil {
			shape = out.Shape
		}
		return fmt.Errorf("gateway: model %q probe forward at geometry %v produced shape %v, want 1×classes logits", spec.ID, spec.Input, shape)
	}
	return nil
}

// Lookup resolves a model ID.
func (r *Registry) Lookup(id string) (*ModelSpec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	spec, ok := r.specs[id]
	if !ok {
		known := append([]string(nil), r.order...)
		sort.Strings(known)
		return nil, fmt.Errorf("gateway: no model %q registered (have %v)", id, known)
	}
	return spec, nil
}

// Models lists registered model IDs in registration order.
func (r *Registry) Models() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// TotalShards counts shard pairs across all registered models.
func (r *Registry) TotalShards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, spec := range r.specs {
		n += len(spec.Shards)
	}
	return n
}

// ShardSeed derives the dealer seed of one (model, shard) pair from the
// deployment's base seed. Both sides of the deployment — the vendor's
// party-0 processes and the gateway's party-1 sessions — derive the same
// seed, so a pair's live dealer streams stay lockstep, while distinct
// pairs draw from independent streams.
func ShardSeed(baseSeed uint64, model string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	return rng.MixSeed(baseSeed, h.Sum64(), uint64(shard)+1)
}

// ShardStoreDir is the canonical per-(model, shard) correlation store
// directory layout under one provisioning root.
func ShardStoreDir(root, model string, shard int) string {
	return filepath.Join(root, model, fmt.Sprintf("shard%d", shard))
}

// ReviveSeed derives the dealer seed of one shard pair's lifecycle
// generation. Generation 0 is the registered seed; each revival mixes the
// generation in, so a revived pair draws a completely fresh correlation
// stream — re-running the dead pair's stream from the top would reuse
// one-time correlation randomness across two protocol executions with
// different inputs, exactly what registry-wide seed uniqueness exists to
// prevent.
func ReviveSeed(seed uint64, gen int) uint64 {
	if gen == 0 {
		return seed
	}
	return rng.MixSeed(seed, 0x726576697665, uint64(gen))
}

// GenStoreDir is a revived generation's store directory: a gen<N>
// subdirectory of the shard's registered store dir, so fresh store pairs
// never collide with the originals (whose streams the dead pair partly
// consumed).
func GenStoreDir(desc ShardDesc, gen int) string {
	if gen == 0 {
		return desc.StoreDir
	}
	return filepath.Join(desc.StoreDir, fmt.Sprintf("gen%d", gen))
}

// Shards builds n shard descriptors for one model: per-shard dealer seeds
// off baseSeed, and per-shard store directories under storeRoot (empty
// storeRoot keeps every shard on the live dealer).
func Shards(model string, n int, baseSeed uint64, storeRoot string) []ShardDesc {
	descs := make([]ShardDesc, n)
	for i := range descs {
		descs[i] = ShardDesc{Model: model, Shard: i, Seed: ShardSeed(baseSeed, model, i)}
		if storeRoot != "" {
			descs[i].StoreDir = ShardStoreDir(storeRoot, model, i)
		}
	}
	return descs
}

// WriteShardStores provisions every store-backed shard of every registered
// model: per model, the correlation demand tape is traced once per batch
// geometry (batches lists the flush batch sizes to cover); per shard, both
// parties' store files are generated off that shard's own dealer-seeded
// stream — each covering `flushes` evaluations per geometry — into the
// shard's StoreDir. Shard fan-out therefore multiplies this offline
// generation, never the online path. The written paths are returned.
func WriteShardStores(reg *Registry, batches []int, flushes int) ([]string, error) {
	if flushes < 1 {
		return nil, fmt.Errorf("gateway: preprocess flushes must be >= 1, got %d", flushes)
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("gateway: no batch sizes to preprocess")
	}
	var paths []string
	for _, id := range reg.Models() {
		spec, err := reg.Lookup(id)
		if err != nil {
			return nil, err
		}
		shapes := make([][]int, len(batches))
		tapes := make([]corr.Tape, len(batches))
		for i, k := range batches {
			if k < 1 {
				return nil, fmt.Errorf("gateway: bad preprocess batch size %d", k)
			}
			shapes[i] = append([]int{k}, spec.Input...)
			if tapes[i], err = reg.tapeFor(spec, shapes[i]); err != nil {
				return nil, err
			}
		}
		for _, desc := range spec.Shards {
			if desc.StoreDir == "" {
				continue
			}
			if err := os.MkdirAll(desc.StoreDir, 0o755); err != nil {
				return nil, fmt.Errorf("gateway: shard store dir: %w", err)
			}
			for i, shape := range shapes {
				// The pair seed is the shard's own dealer seed, so each
				// pair's stores — their per-geometry streams, fixed weight
				// masks and cross-checked run labels — are unique to the
				// shard: stores from different shards or preprocess runs
				// can never be mixed silently.
				ps, err := pi.WriteStorePair(tapes[i], desc.Seed, shape, flushes, desc.StoreDir)
				if err != nil {
					return nil, fmt.Errorf("gateway: model %q shard %d: %w", id, desc.Shard, err)
				}
				paths = append(paths, ps...)
			}
		}
	}
	// Remember the parameters so revived shards can be re-provisioned
	// fresh stores of the same coverage (ReprovisionShardStore).
	reg.SetProvision(batches, flushes)
	return paths, nil
}

// tapeFor returns the demand tape of one (model, geometry), tracing it at
// most once per registry: the tape depends only on program and shape,
// never on any shard's randomness, so provisioning and every later revival
// share it.
func (r *Registry) tapeFor(spec *ModelSpec, shape []int) (corr.Tape, error) {
	key := fmt.Sprintf("%s %v", spec.ID, shape)
	r.mu.Lock()
	tape, ok := r.tapes[key]
	prog := r.progs[spec.ID]
	r.mu.Unlock()
	if ok {
		return tape, nil
	}
	if prog == nil {
		var err error
		if prog, err = pi.Compile(spec.Model.Net); err != nil {
			return nil, fmt.Errorf("gateway: compile model %q: %w", spec.ID, err)
		}
		r.mu.Lock()
		r.progs[spec.ID] = prog
		r.mu.Unlock()
	}
	tape, err := pi.TraceTape(prog, shape)
	if err != nil {
		return nil, fmt.Errorf("gateway: model %q geometry %v: %w", spec.ID, shape, err)
	}
	r.mu.Lock()
	r.tapes[key] = tape
	r.mu.Unlock()
	return tape, nil
}

// ReprovisionShardStore writes one later shard generation's fresh store
// pair (revival or rollover): every geometry of the recorded
// provisioning policy, off the generation's fresh stream (ReviveSeed),
// into the generation's own store directory. Both sides of a deployment run it independently and
// deterministically — the files are pure functions of (tape, seed), and
// WriteStorePair publishes them by atomic rename — so whichever process
// writes first wins with identical bytes; files already present are kept
// (idempotent). It errors when the registry has no recorded provisioning
// policy: the caller should then revive the shard onto the live dealer
// instead.
func ReprovisionShardStore(reg *Registry, model string, shard, gen int) ([]string, error) {
	spec, err := reg.Lookup(model)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(spec.Shards) {
		return nil, fmt.Errorf("gateway: model %q has no shard %d", model, shard)
	}
	desc := spec.Shards[shard]
	if desc.StoreDir == "" {
		return nil, fmt.Errorf("gateway: model %q shard %d has no store dir to re-provision", model, shard)
	}
	policy := reg.Provision()
	if policy == nil {
		return nil, fmt.Errorf("gateway: no provisioning policy recorded for re-provisioning model %q shard %d (call WriteShardStores or SetProvision)", model, shard)
	}
	reg.provMu.Lock()
	defer reg.provMu.Unlock()
	dir := GenStoreDir(desc, gen)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gateway: revival store dir: %w", err)
	}
	seed := ReviveSeed(desc.Seed, gen)
	var paths []string
	for _, k := range policy.Batches {
		shape := append([]int{k}, spec.Input...)
		if storePairExists(dir, shape) {
			continue
		}
		tape, err := reg.tapeFor(spec, shape)
		if err != nil {
			return nil, err
		}
		// The revived generation's fresh pair seed also mints fresh fixed
		// weight masks: gen N+1's session opens a new F = W−b and its
		// stores replay against that new b, never gen N's.
		ps, err := pi.WriteStorePair(tape, seed, shape, policy.Flushes, dir)
		if err != nil {
			return nil, fmt.Errorf("gateway: re-provision model %q shard %d gen %d: %w", model, shard, gen, err)
		}
		paths = append(paths, ps...)
	}
	return paths, nil
}

// storePairExists reports whether both parties' store files for a
// geometry are already present in dir.
func storePairExists(dir string, shape []int) bool {
	for party := 0; party < 2; party++ {
		if _, err := os.Stat(filepath.Join(dir, corr.FileName(party, shape))); err != nil {
			return false
		}
	}
	return true
}
