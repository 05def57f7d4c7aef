package transport

import (
	"fmt"
	"sync"
	"time"
)

// FaultPlan schedules deterministic receive-path faults for chaos tests:
// frame indices are 1-based counts of receives attempted on the faulted
// endpoint after Arm, so a test can set a fleet up cleanly (weight
// sharing, store preload) and then inject the fault at a known point in
// the serving protocol. Zero-valued fields inject nothing.
type FaultPlan struct {
	// StallAt freezes the StallAt-th armed receive for StallFor before
	// letting it proceed — the peer looks alive but silent, the failure
	// mode read deadlines exist for. The stall wakes early when the
	// endpoint's read deadline expires or the conn closes, so a bounded
	// receive fails with the deadline error instead of sleeping the whole
	// stall out.
	StallAt  int
	StallFor time.Duration
	// DropAt tears the connection down mid-protocol at the DropAt-th armed
	// receive: the underlying conn is closed (the peer sees EOF) and this
	// endpoint fails every subsequent operation with a descriptive error.
	DropAt int
	// CorruptAt mangles the CorruptAt-th armed receive's frame kind, the
	// signature of a corrupted header: the receive fails with a framing
	// error instead of delivering data.
	CorruptAt int
}

// FaultConn decorates one Conn endpoint with a FaultPlan. It is a Link
// whose ReadFrame runs the plan first, over the inner conn's own typed
// methods (AsLink). It is inert — frames pass through uncounted — until
// Arm is called.
type FaultConn struct {
	conn // the typed methods, over this decorator's own frames

	inner Link
	plan  FaultPlan

	mu       sync.Mutex
	armed    bool
	recvs    int
	dropped  bool
	deadline time.Time
	closed   chan struct{}
	once     sync.Once
}

// NewFaultConn wraps inner with plan. Compose freely: the inner conn may
// itself be a DelayPipe endpoint, so chaos and wire-delay models stack.
func NewFaultConn(inner Conn, plan FaultPlan) *FaultConn {
	c := &FaultConn{inner: AsLink(inner), plan: plan, closed: make(chan struct{})}
	c.link = c
	return c
}

// FaultPipe is the chaos counterpart of Pipe/DelayPipe: a duplex pipe
// (with one-way delay d when d > 0) whose first endpoint injects plan.
func FaultPipe(d time.Duration, plan FaultPlan) (*FaultConn, Conn) {
	var a, b Conn
	if d > 0 {
		a, b = DelayPipe(d)
	} else {
		a, b = Pipe()
	}
	return NewFaultConn(a, plan), b
}

// Arm starts fault scheduling: receives are counted from the next one on.
func (c *FaultConn) Arm() {
	c.mu.Lock()
	c.armed = true
	c.recvs = 0
	c.mu.Unlock()
}

// errDropped is the terminal state after an injected connection drop.
func (c *FaultConn) errDropped() error {
	return fmt.Errorf("transport: fault injection dropped the connection mid-protocol")
}

// pre runs the fault schedule before a receive. A non-nil error replaces
// the receive's result.
func (c *FaultConn) pre() error {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return c.errDropped()
	}
	if !c.armed {
		c.mu.Unlock()
		return nil
	}
	c.recvs++
	n := c.recvs
	dl := c.deadline
	c.mu.Unlock()

	if c.plan.StallAt > 0 && n == c.plan.StallAt {
		c.stall(dl)
	}
	if c.plan.DropAt > 0 && n == c.plan.DropAt {
		c.mu.Lock()
		c.dropped = true
		c.mu.Unlock()
		c.Close()
		return c.errDropped()
	}
	if c.plan.CorruptAt > 0 && n == c.plan.CorruptAt {
		return fmt.Errorf("transport: frame kind corrupted in flight (fault injection): header failed validation")
	}
	return nil
}

// stall sleeps until the stall elapses, the read deadline expires, or the
// conn closes — whichever comes first. After a deadline-bounded stall the
// caller's inner receive fails immediately with the deadline error.
func (c *FaultConn) stall(deadline time.Time) {
	wait := c.plan.StallFor
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < wait {
			wait = until
		}
	}
	if wait <= 0 {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-c.closed:
	}
}

// WriteFrame implements Link; the plan schedules receive faults only.
func (c *FaultConn) WriteFrame(f Frame) error { return c.inner.WriteFrame(f) }

// ReadFrame implements Link.
func (c *FaultConn) ReadFrame(want byte, maxElems int) (Frame, error) {
	if err := c.pre(); err != nil {
		return Frame{}, err
	}
	return c.inner.ReadFrame(want, maxElems)
}

// SetReadDeadline implements Link.
func (c *FaultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements Link by delegating to the inner conn; the
// fault plan only schedules receive-path faults, so sends keep the inner
// semantics.
func (c *FaultConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Close implements Link.
func (c *FaultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.inner.Close()
}
