package gateway

import (
	"fmt"
	"net"
	"sync"

	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/pi"
	"pasnet/internal/transport"
)

// This file is the vendor (party 0) side of the gateway deployment: each
// shard link that a Router dials lands on ServeShardConn, which reads the
// hello frame naming the (model, shard) the link serves, builds that
// shard's party-0 session — same dealer seed, same preprocessed store
// directory — and serves batched evaluations until the router closes the
// session. Loopback packages the same serving loop as an in-process
// dialer, the single-binary deployment used by tests, benchmarks and the
// example walkthrough.

// ServeShardConn serves the party-0 side of one shard link to completion.
// The hello is answered before any weight sharing: an empty ack accepts,
// a non-empty ack carries the rejection reason (unknown model, bad shard
// index, stale generation) so the router fails fast with a descriptive
// error instead of hanging in setup. A hello of [shard] serves the
// original pair; [shard, gen] with gen > 0 is a later lifecycle
// generation — a revival of a dead pair or a rollover of a live one. It
// runs a fresh dealer stream (ReviveSeed) and, when the registry records
// a provisioning policy, a freshly re-provisioned store pair in the
// generation's own directory (otherwise the pair serves from the live
// dealer; the registered store would replay a stream an earlier
// generation already partly consumed). Each generation is claimed at
// most once, and only if newer than every earlier claim.
func ServeShardConn(conn transport.Conn, reg *Registry) error {
	// The link is owned here on every path — rejected hellos included —
	// so a lifecycle vendor accepting new generations for months never
	// accumulates dead descriptors.
	defer conn.Close()
	// Bring-up runs under the flush deadline, as on the router side: a
	// gateway that dials and then stalls fails this link instead of
	// parking its goroutine forever.
	deadline := reg.FlushDeadline()
	setDeadline(conn, deadline)
	model, hello, err := conn.RecvModelShape()
	if err != nil {
		return fmt.Errorf("gateway: shard hello: %w", err)
	}
	spec, err := reg.Lookup(model)
	if err != nil {
		_ = conn.SendBytes([]byte(err.Error()))
		return err
	}
	if len(hello) < 1 || len(hello) > 2 || hello[0] < 0 || hello[0] >= len(spec.Shards) {
		err := fmt.Errorf("gateway: model %q hello %v must be [shard] or [shard, generation] naming one of its %d shard(s)", model, hello, len(spec.Shards))
		_ = conn.SendBytes([]byte(err.Error()))
		return err
	}
	gen := 0
	if len(hello) == 2 {
		gen = hello[1]
	}
	if gen < 0 {
		err := fmt.Errorf("gateway: model %q shard %d hello names negative generation %d", model, hello[0], gen)
		_ = conn.SendBytes([]byte(err.Error()))
		return err
	}
	if err := reg.claimShard(model, hello[0], gen); err != nil {
		_ = conn.SendBytes([]byte(err.Error()))
		return err
	}
	desc := spec.Shards[hello[0]]
	storeDir := desc.StoreDir
	if gen > 0 && storeDir != "" {
		if reg.Provision() != nil {
			if _, err := ReprovisionShardStore(reg, model, desc.Shard, gen); err != nil {
				_ = conn.SendBytes([]byte(err.Error()))
				return err
			}
			storeDir = GenStoreDir(desc, gen)
		} else {
			storeDir = ""
		}
		// The store build is local work; the bound restarts after it.
		setDeadline(conn, deadline)
	}
	if err := conn.SendBytes(nil); err != nil {
		return fmt.Errorf("gateway: shard hello ack: %w", err)
	}
	seed := ReviveSeed(desc.Seed, gen)
	p := mpc.NewParty(0, conn, seed, privSeed(), fixed.Default64())
	expect := append([]int{0}, spec.Input...)
	sess, err := pi.NewSessionOpts(p, spec.Model, expect, pi.SessionOptions{})
	if err != nil {
		return fmt.Errorf("gateway: model %q shard %d vendor session: %w", model, desc.Shard, err)
	}
	// From here the session bounds each flush and idles unbounded between
	// them, so a gateway that stalls mid-protocol fails this link instead
	// of wedging the serving goroutine forever.
	setDeadline(conn, 0)
	sess.SetFlushDeadline(deadline)
	if storeDir != "" {
		dp := pi.NewDirProvider(storeDir)
		if err := dp.Preload(0); err != nil {
			return fmt.Errorf("gateway: model %q shard %d vendor: %w", model, desc.Shard, err)
		}
		sess.UsePreprocessed(dp)
	}
	if err := sess.Serve(); err != nil {
		return fmt.Errorf("gateway: model %q shard %d: %w", model, desc.Shard, err)
	}
	return nil
}

// ServeShards accepts exactly n shard connections from l and serves each
// concurrently, returning after all links close. Per-link errors are
// collected; the first non-nil one is returned (a shard dying — e.g. its
// store running dry — must not stop the vendor from serving the other
// accepted links to completion). If every accepted link has already
// closed while fewer than n ever arrived — a misconfigured gateway (fewer
// shards than the vendor expects) or a router that failed setup and tore
// its links down — the listener is closed so the pending accept fails
// with a diagnostic instead of hanging the vendor forever.
func ServeShards(l net.Listener, reg *Registry, n int) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	accepted, finished := 0, 0
	deficit := false
	for i := 0; i < n; i++ {
		nc, err := l.Accept()
		if err != nil {
			mu.Lock()
			wasDeficit := deficit
			mu.Unlock()
			wg.Wait()
			if wasDeficit {
				mu.Lock()
				defer mu.Unlock()
				return fmt.Errorf("gateway: only %d of %d shard links arrived and all have closed — vendor and gateway disagree on -models/-shards? (first link error: %v)", i, n, firstErr)
			}
			return fmt.Errorf("gateway: accept shard link %d: %w", i, err)
		}
		mu.Lock()
		accepted++
		mu.Unlock()
		wg.Add(1)
		go func(nc net.Conn) {
			defer wg.Done()
			err := ServeShardConn(transport.NewTCPConn(nc), reg)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			finished++
			if finished == accepted && accepted < n {
				// Nothing is serving and the remaining links can no longer
				// be expected: the peer set up fewer pairs than we were
				// told. Unblock the accept loop.
				deficit = true
				l.Close()
			}
			mu.Unlock()
		}(nc)
	}
	wg.Wait()
	return firstErr
}

// ServeShardsLoop accepts and serves shard links until the listener is
// closed — the vendor shape for lifecycle deployments, where a gateway
// dials later shard generations at arbitrary times so no fixed link
// count exists. Per-link errors are reported through onLinkErr (nil: dropped)
// rather than failing the loop: under a lifecycle, a link dying is the
// normal prelude to its revival, not a deployment failure — unlike the
// fixed-count ServeShards, where a dead link genuinely is one.
func ServeShardsLoop(l net.Listener, reg *Registry, onLinkErr func(error)) {
	var wg sync.WaitGroup
	for {
		nc, err := l.Accept()
		if err != nil {
			break
		}
		wg.Add(1)
		go func(nc net.Conn) {
			defer wg.Done()
			if err := ServeShardConn(transport.NewTCPConn(nc), reg); err != nil && onLinkErr != nil {
				onLinkErr(err)
			}
		}(nc)
	}
	wg.Wait()
}

// Loopback runs every shard's party-0 peer in-process over an in-memory
// pipe: its Dial hands the router one end and serves the other on a fresh
// goroutine. Wait blocks until every served link closed and returns the
// first vendor-side error.
type Loopback struct {
	reg *Registry
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// NewLoopback builds the in-process vendor for a registry.
func NewLoopback(reg *Registry) *Loopback {
	return &Loopback{reg: reg}
}

// Dial implements RouterOptions.Dial over an in-memory pipe.
func (lb *Loopback) Dial(desc ShardDesc) (transport.Conn, error) {
	c0, c1 := transport.Pipe()
	lb.wg.Add(1)
	go func() {
		defer lb.wg.Done()
		if err := ServeShardConn(c0, lb.reg); err != nil {
			lb.mu.Lock()
			if lb.err == nil {
				lb.err = err
			}
			lb.mu.Unlock()
		}
	}()
	return c1, nil
}

// Wait blocks until every vendor goroutine exited (call after the router
// is closed) and returns the first vendor-side serving error.
func (lb *Loopback) Wait() error {
	lb.wg.Wait()
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.err
}
