package mpc

import (
	"io"
	"net"
	"strings"
	"testing"

	"pasnet/internal/transport"
)

// TestRevealReceivesBounded: a reveal's receiver knows the share length,
// so a peer header claiming more words fails at admission, before any
// payload is allocated or read (which on this pipe would block forever) —
// for the split reveal's receive half, for RevealTo's owner, and for the
// exchange of a whole Reveal.
func TestRevealReceivesBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		recv func(p *Party, sh Share) error
	}{
		{"RevealRecv", func(p *Party, sh Share) error { _, err := p.RevealRecv(sh); return err }},
		{"RevealTo", func(p *Party, sh Share) error { _, err := p.RevealTo(p.ID, sh); return err }},
		{"Reveal", func(p *Party, sh Share) error { _, err := p.Reveal(sh); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hostile, victim := net.Pipe()
			defer hostile.Close()
			defer victim.Close()
			go io.Copy(io.Discard, hostile)
			go hostile.Write([]byte{'U', 0, 0, 0, 0x40}) // claims 1 GiB
			p := NewParty(1, transport.NewTCPConn(victim), 1, 2, testCodec)
			err := tc.recv(p, NewShare(2, 3))
			if err == nil || !strings.Contains(err.Error(), "exceeds expected 6 elements") {
				t.Fatalf("want the share length's admit error, got %v", err)
			}
		})
	}
}
