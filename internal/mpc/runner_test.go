package mpc

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunProtocolFailingPartyReleasesPeer: when one party's program
// fails — an error or a panic — while its peer waits to receive, the
// failing party's end of the link closes, the peer's receive ends, and
// RunProtocol returns the failure instead of blocking forever.
func TestRunProtocolFailingPartyReleasesPeer(t *testing.T) {
	boom := errors.New("party 0 gave up")
	for _, c := range []struct {
		name string
		fail func() error
		want string
	}{
		{"error", func() error { return boom }, boom.Error()},
		{"panic", func() error { panic("party 0 crashed") }, "panicked"},
	} {
		t.Run(c.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				done <- RunProtocol(3, testCodec, func(p *Party) error {
					if p.ID == 0 {
						return c.fail()
					}
					_, err := p.Conn.RecvUint64s()
					return err
				})
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("RunProtocol returned %v, want the party-0 failure", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunProtocol wedged: party 1 still waits on a peer that already failed")
			}
		})
	}
}
