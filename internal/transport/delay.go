package transport

import (
	"sync"
	"time"
)

// DelayPipe is Pipe with a propagation-delay model: every frame is
// delivered no earlier than its send time plus the one-way delay, but
// frames in flight overlap — three frames sent back to back arrive d
// after their sends, not 3d after the first — which is how a real link
// behaves and what makes a protocol's round count measurable in a
// single-process benchmark. The in-memory pipe itself stays instant; the
// receiver sleeps out whatever remains of each frame's delivery time, so
// compute on either side overlaps the wire delay exactly as it would
// across two machines.
//
// It exists for benchmarks and tests (cmd/pasnet-bench -exhibit
// dispatch models a LAN deployment with it); deployments use real links.
func DelayPipe(d time.Duration) (Conn, Conn) {
	a, b := Pipe()
	ab := make(chan time.Time, 4096)
	ba := make(chan time.Time, 4096)
	dead := make(chan struct{})
	var once sync.Once
	kill := func() { once.Do(func() { close(dead) }) }
	return NewConn(&delayLink{Link: a, d: d, sendTS: ab, recvTS: ba, dead: dead, kill: kill}),
		NewConn(&delayLink{Link: b, d: d, sendTS: ba, recvTS: ab, dead: dead, kill: kill})
}

// delayLink decorates one pipe endpoint: each written frame stamps its
// wall time into the direction's timestamp queue (FIFO, 1:1 with frames);
// each read pops the matching stamp and sleeps until stamp+d before taking
// the frame. SetWriteDeadline is the endpoint's own: the delay model only
// shapes delivery time, never send admission, so write deadlines behave
// exactly as on the undecorated pipe.
type delayLink struct {
	Link
	d      time.Duration
	sendTS chan<- time.Time
	recvTS <-chan time.Time
	// dead releases receivers waiting for a stamp that will never come
	// once either endpoint closes.
	dead chan struct{}
	kill func()

	dmu      sync.Mutex
	deadline time.Time
}

// stamp records a send. The queue is far deeper than any protocol's
// in-flight window; if it ever fills, the send proceeds unstamped and
// the receiver simply doesn't sleep for that frame (a timing model, not
// a correctness surface).
func (c *delayLink) stamp() {
	select {
	case c.sendTS <- time.Now():
	default:
	}
}

// wait sleeps out the current frame's remaining delivery time. An armed
// read deadline bounds the wait for a stamp, otherwise a peer that never
// sends would park the receiver here forever, out of reach of the inner
// link's deadline; on expiry wait falls through to the inner receive,
// which fails immediately with the deadline error.
func (c *delayLink) wait() {
	c.dmu.Lock()
	dl := c.deadline
	c.dmu.Unlock()
	var expiry <-chan time.Time
	if !dl.IsZero() {
		timer := time.NewTimer(time.Until(dl))
		defer timer.Stop()
		expiry = timer.C
	}
	select {
	case ts := <-c.recvTS:
		if s := time.Until(ts.Add(c.d)); s > 0 {
			time.Sleep(s)
		}
	case <-c.dead:
	case <-expiry:
	}
}

func (c *delayLink) WriteFrame(f Frame) error {
	c.stamp()
	return c.Link.WriteFrame(f)
}

func (c *delayLink) ReadFrame(want byte, maxElems int) (Frame, error) {
	c.wait()
	return c.Link.ReadFrame(want, maxElems)
}

func (c *delayLink) SetReadDeadline(t time.Time) error {
	c.dmu.Lock()
	c.deadline = t
	c.dmu.Unlock()
	return c.Link.SetReadDeadline(t)
}

func (c *delayLink) Close() error {
	c.kill()
	return c.Link.Close()
}
