package gateway

import (
	"errors"
	"os"
	"testing"
	"time"

	"pasnet/internal/transport"
)

// Bring-up runs under the flush deadline on both ends of a shard link:
// a peer that accepts and then stalls must fail the build with a deadline
// error, never wedge NewRouter, the lifecycle's build goroutine or a
// vendor goroutine. Every case runs under the chaos suite's watchdog,
// because without the bound each one blocks forever.

const bringUpDeadline = 200 * time.Millisecond

// TestRouterBringUpDeadline drives NewRouter against a fake vendor that
// reads the hello and then either never acks or acks and never shares a
// weight.
func TestRouterBringUpDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		ack  bool
	}{
		{"vendor-never-acks", false},
		{"vendor-stalls-after-ack", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stop := watchdog(t, 30*time.Second)
			defer stop()
			m, input := testModel("m", 2, 8, 3, 101)
			reg := NewRegistry()
			if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 7, "")}); err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			defer close(release)
			dial := func(ShardDesc) (transport.Conn, error) {
				c0, c1 := transport.Pipe()
				go func() {
					defer c0.Close()
					if _, _, err := c0.RecvModelShape(); err != nil {
						return
					}
					if tc.ack {
						_ = c0.SendBytes(nil)
					}
					<-release
				}()
				return c1, nil
			}
			start := time.Now()
			rt, err := NewRouter(reg, RouterOptions{Dial: dial, FlushDeadline: bringUpDeadline})
			if err == nil {
				rt.Close()
				t.Fatal("a stalled vendor must fail bring-up")
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("want a deadline error, got: %v", err)
			}
			if el := time.Since(start); el > 10*bringUpDeadline {
				t.Fatalf("bring-up failed after %v, want about one %v deadline", el, bringUpDeadline)
			}
		})
	}
}

// TestVendorBringUpDeadline is the vendor-side twin: a gateway that dials
// and never says hello fails ServeShardConn with a deadline error. Past
// the ack the vendor receives nothing at bring-up — Setup is its one send
// of every F = W−b — so there is no later bring-up receive for a stalled
// gateway to leave hanging.
func TestVendorBringUpDeadline(t *testing.T) {
	t.Run("gateway-never-says-hello", func(t *testing.T) {
		stop := watchdog(t, 30*time.Second)
		defer stop()
		m, input := testModel("m", 2, 8, 3, 101)
		reg := NewRegistry()
		if err := reg.Register(&ModelSpec{ID: "m", Model: m, Input: input, Shards: Shards("m", 1, 7, "")}); err != nil {
			t.Fatal(err)
		}
		reg.SetFlushDeadline(bringUpDeadline)
		c0, c1 := transport.Pipe()
		defer c1.Close()
		if err := ServeShardConn(c0, reg); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("want a deadline error, got: %v", err)
		}
	})
}
