package pi

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// ErrNoStore marks a provider lookup that found no preprocessed material
// for a flush geometry. It is the one provider failure a Session degrades
// to the live dealer on (both parties agree via the stamp round); any
// other failure — a corrupt, truncated or wrong-party store — stays
// fatal, because silently serving without the offline split would mask a
// real provisioning defect.
var ErrNoStore = errors.New("no preprocessed store for this geometry")

// This file implements the pi layer of the offline/online deployment
// split. A compiled program's correlation demand — which Beaver triples,
// square pairs, matmul/conv triples and bit-triple batches the online
// phase consumes, in what order and at what shapes — is a pure function of
// the program and the input geometry. TraceTape records it once per
// batch geometry by running the program through an in-process two-party
// pipe with recording correlation sources; WriteStorePair then deals that
// tape ahead of time into corr.Stores, and the measured online phase
// merely replays them.

// zeroSource hands out all-zero correlations — a valid (degenerate)
// triple, since 0 ⊙ 0 = 0 holds for every bilinear op. It hands every
// party every operand; under a real source the owner-split kinds give
// party 0 no a and party 1 no b, and each party's op reads only the
// operands it would hold. The demand trace
// consumes it instead of a live dealer so tracing records the full demand
// sequence without paying for any correlation generation; privacy is
// irrelevant there (the trace runs in-process on zero inputs).
type zeroSource struct{}

func (zeroSource) TakeHadamard(n int) (a, b, z []uint64, err error) {
	nw := mpc.BitWords(n) + n
	return make([]uint64, nw), make([]uint64, nw), make([]uint64, 2*n), nil
}

func (zeroSource) TakeSquare(n int) (a, z []uint64, err error) {
	return make([]uint64, n), make([]uint64, n), nil
}

func (zeroSource) TakeMatMul(m, k, p int) (a, b, z []uint64, err error) {
	return make([]uint64, m*k), make([]uint64, k*p), make([]uint64, m*p), nil
}

func (zeroSource) TakeConv(dims mpc.ConvDims) (a, b, z []uint64, err error) {
	return make([]uint64, dims.InLen()), make([]uint64, dims.KLen()), make([]uint64, dims.OutLen()), nil
}

func (zeroSource) TakeMatMulFixedB(mask, m, k, p int) (a, z []uint64, err error) {
	// z = a@b = 0 for a = 0, whatever b is — still a valid pair.
	return make([]uint64, m*k), make([]uint64, m*p), nil
}

func (zeroSource) TakeConvFixedB(mask int, dims mpc.ConvDims) (a, z []uint64, err error) {
	return make([]uint64, dims.InLen()), make([]uint64, dims.OutLen()), nil
}

func (zeroSource) TakeMatMulFixedBShared(mask, m, k, p int) (z []uint64, err error) {
	return make([]uint64, m*p), nil
}

func (zeroSource) TakeConvFixedBShared(mask int, dims mpc.ConvDims) (z []uint64, err error) {
	return make([]uint64, dims.OutLen()), nil
}

func (zeroSource) TakeBits(n int) (ta, tb, tc mpc.BitShare, err error) {
	return mpc.NewBitShare(n), mpc.NewBitShare(n), mpc.NewBitShare(n), nil
}

// TraceTape runs the compiled program once over an in-process transport
// with recording correlation sources and returns the demand tape one
// session flush consumes at the given input geometry: linear ops take the
// FixedB kinds. (Setup's one frame of F = W−b is a transport send, not a
// correlation take, so it never appears on the tape.) The trace runs
// on zero inputs and zero correlations: correlation demand never depends
// on input values or correlation material, only on shapes — an invariant
// the trace itself enforces by comparing the two parties' independently
// recorded tapes. The zero query is shared as a flush shares a query:
// party 1 holds it whole, party 0 holds zeros.
func TraceTape(prog *Program, inputShape []int) (corr.Tape, error) {
	n := 1
	for _, d := range inputShape {
		n *= d
	}
	if len(inputShape) == 0 || n <= 0 {
		return nil, fmt.Errorf("pi: cannot trace demand for input shape %v", inputShape)
	}
	var tapes [2]corr.Tape
	err := mpc.RunProtocol(1, fixed.Default64(), func(p *mpc.Party) error {
		rec := corr.NewRecorder(zeroSource{})
		p.Source = rec
		eng := NewEngine(prog)
		if err := eng.Setup(p); err != nil {
			return err
		}
		if _, err := eng.Infer(mpc.NewShare(inputShape...)); err != nil {
			return err
		}
		tapes[p.ID] = rec.Tape()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pi: demand trace: %w", err)
	}
	if !tapes[0].Equal(tapes[1]) {
		return nil, fmt.Errorf("pi: demand trace: parties recorded diverging correlation tapes (%d vs %d demands)",
			len(tapes[0]), len(tapes[1]))
	}
	return tapes[0], nil
}

// TraceTapeMode is TraceTape for callers that still name the weight-mask
// mode. Only fixed masks remain, so false is an error.
//
// Deprecated: use TraceTape. TraceTapeMode goes with the next change to
// the benchmark module, its last caller.
func TraceTapeMode(prog *Program, inputShape []int, fixed bool) (corr.Tape, error) {
	if !fixed {
		return nil, fmt.Errorf("pi: per-flush weight masks are no longer served; trace with fixed masks")
	}
	return TraceTape(prog, inputShape)
}

// SourceProvider supplies the correlation source one party consumes for a
// flush of the given input geometry. Both parties must be provisioned
// consistently: either both replay stores generated off one shared stream,
// or both run the live dealer.
type SourceProvider interface {
	SourceFor(party int, shape []int) (mpc.CorrelationSource, error)
}

// DirProvider loads preprocessed store files (written by WriteStorePair /
// `pasnet-server -party preprocess`) from a directory, one file per
// (party, geometry), and serves each file's stream across flushes until it
// is exhausted — at which point the online phase fails with the store's
// descriptive exhaustion error rather than desyncing.
//
// Installed in a party-1 Session (UsePreprocessed), it binds every
// party-1 store to that session: the ones it holds at once, and every
// later one as it decodes (corr.ReadBoundFile), on Preload or on a lazy
// SourceFor. It binds for one session only.
type DirProvider struct {
	dir    string
	mu     sync.Mutex
	stores map[string]*corr.Store
	binder *mpc.Binder
}

// NewDirProvider serves stores from dir.
func NewDirProvider(dir string) *DirProvider {
	return &DirProvider{dir: dir, stores: map[string]*corr.Store{}}
}

// Preload eagerly loads the given party's store files in the directory,
// so no flush pays store deserialization inside the measured online path
// (SourceFor otherwise loads lazily on a geometry's first flush). Only
// files named for the party are touched — the peer's halves in a shared
// directory are never deserialized or pinned — and a file whose content
// belongs to the wrong party fails here with the same descriptive error
// the lazy path would raise, never entering the cache. A missing
// directory is not an error — per-geometry lookups will miss with
// ErrNoStore and degrade to the live dealer as usual — but an unreadable
// store file is, loudly, at setup time rather than mid-deployment.
func (dp *DirProvider) Preload(party int) error {
	entries, err := os.ReadDir(dp.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("pi: preload store dir: %w", err)
	}
	prefix := fmt.Sprintf("corr_p%d_", party)
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".pcs") {
			continue
		}
		if _, ok := dp.stores[name]; ok {
			continue
		}
		s, err := dp.read(party, name)
		if err != nil {
			return fmt.Errorf("pi: preload store %s: %w", name, err)
		}
		if s.Party() != party {
			return fmt.Errorf("pi: preload store %s holds party %d material, wanted party %d", name, s.Party(), party)
		}
		dp.stores[name] = s
	}
	return nil
}

// SourceFor implements SourceProvider: the file for (party, geometry) is
// loaded once and its cursor persists across flushes.
func (dp *DirProvider) SourceFor(party int, shape []int) (mpc.CorrelationSource, error) {
	name := corr.FileName(party, shape)
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if s, ok := dp.stores[name]; ok {
		return s, nil
	}
	s, err := dp.read(party, name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("pi: party %d at geometry %v: %w", party, shape, ErrNoStore)
		}
		return nil, fmt.Errorf("pi: preprocessed store for party %d at geometry %v: %w", party, shape, err)
	}
	if s.Party() != party {
		return nil, fmt.Errorf("pi: store %s holds party %d material, wanted party %d", name, s.Party(), party)
	}
	dp.stores[name] = s
	return s, nil
}

// read loads the store file name for party, bound as it decodes when it
// is party 1's and the provider has a binder. The caller holds dp.mu.
func (dp *DirProvider) read(party int, name string) (*corr.Store, error) {
	path := filepath.Join(dp.dir, name)
	if party == 1 && dp.binder != nil {
		return corr.ReadBoundFile(path, dp.binder)
	}
	return corr.ReadFile(path)
}

// bind implements binding: it binds every party-1 store loaded so far
// and keeps b for the ones loaded later. A provider already bound to
// another session's binder refuses.
func (dp *DirProvider) bind(b *mpc.Binder) error {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if dp.binder != nil && dp.binder != b {
		return fmt.Errorf("pi: store directory %s is bound to another session (dealer seed %#x); each session needs a DirProvider of its own", dp.dir, dp.binder.Seed())
	}
	dp.binder = b
	for name, s := range dp.stores {
		if s.Party() != 1 || s.Binder() == b {
			continue
		}
		if err := s.Bind(b); err != nil {
			return fmt.Errorf("pi: bind store %s: %w", name, err)
		}
	}
	return nil
}

// StoreSeed derives the per-geometry dealer stream seed shared by the two
// parties' store files, so stores of different batch geometries never
// share correlation randomness.
func StoreSeed(dealerSeed uint64, shape []int) uint64 {
	vs := make([]uint64, 0, len(shape)+1)
	vs = append(vs, uint64(len(shape)))
	for _, d := range shape {
		vs = append(vs, uint64(d))
	}
	return rng.MixSeed(dealerSeed, vs...)
}

// WriteStorePair generates one geometry's store pair — the demand tape
// repeated over `flushes` evaluations, off the per-geometry stream
// StoreSeed(pairSeed, shape) — and writes both parties' files into dir
// under the canonical names. pairSeed is the serving pair's *dealer* seed:
// the per-geometry stream is derived from it here (so stores of different
// batch geometries never share correlation randomness), and it doubles as
// the fixed weight-mask seed, which must be the dealer's so that a
// store-fed flush replays z = a@b against the b the session opened
// F = W−b with at setup (corr.BuildPair). Both files carry the run stamp
// the sessions cross-check per flush, derived from the stream seed, so
// stores from preprocess runs (or shards) with different seeds can never
// be mixed silently. It is the single place the store wire layout, naming
// and labeling live; every provisioning path (the gateway's per-shard
// provisioning, `pasnet-server -party preprocess`) goes through it.
func WriteStorePair(tape corr.Tape, pairSeed uint64, shape []int, flushes int, dir string) ([]string, error) {
	if flushes < 1 {
		return nil, fmt.Errorf("pi: preprocess flushes must be >= 1, got %d", flushes)
	}
	seed := StoreSeed(pairSeed, shape)
	s0, s1, err := corr.BuildPair(tape.Repeat(flushes), rng.New(seed), pairSeed)
	if err != nil {
		return nil, fmt.Errorf("pi: preprocess geometry %v: %w", shape, err)
	}
	label := uint32(seed) ^ uint32(seed>>32)
	s0.SetLabel(label)
	s1.SetLabel(label)
	var paths []string
	for _, s := range []*corr.Store{s0, s1} {
		path := filepath.Join(dir, corr.FileName(s.Party(), shape))
		// Write-then-rename keeps the store visible only whole: the
		// contents are deterministic in (tape, seed), so when the two
		// processes of a deployment re-provision the same shared directory
		// concurrently (shard revival), the last rename wins with identical
		// bytes instead of a torn file. The temp name must be unique per
		// writer — CreateTemp, not a pid suffix: two containerized
		// processes sharing the volume can both be pid 1.
		tmpF, err := os.CreateTemp(dir, corr.FileName(s.Party(), shape)+".tmp")
		if err != nil {
			return nil, fmt.Errorf("pi: write store: %w", err)
		}
		tmp := tmpF.Name()
		tmpF.Close()
		if err := s.WriteFile(tmp); err != nil {
			os.Remove(tmp)
			return nil, fmt.Errorf("pi: write store: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return nil, fmt.Errorf("pi: write store: %w", err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}
