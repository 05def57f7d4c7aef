package pi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// tinyModel wraps a hand-built network in a models.Model so Session tests
// need no training.
func tinyModel(seed uint64) (*models.Model, int, int) {
	v := netVariants[0] // plain-x2-gap
	r := rng.New(seed)
	net := v.build(r, v.hw, v.inC, 3)
	warmNet(net, r, v.hw, v.inC)
	return &models.Model{Name: "tiny", Net: net}, v.inC, v.hw
}

// runBothParties drives one single-query Session pair over an in-memory
// pipe — party 0 declares the geometry it expects and serves one
// evaluation, party 1 submits x — with a timeout guard: a shape mismatch
// must produce errors, never a hang.
func runBothParties(t *testing.T, m *models.Model, x *tensor.Tensor, expect []int) ([2][]float64, [2]error) {
	t.Helper()
	c0, c1 := transport.Pipe()
	codec := fixed.Default64()
	p0 := mpc.NewParty(0, c0, 5, 51, codec)
	p1 := mpc.NewParty(1, c1, 5, 52, codec)
	var outs [2][]float64
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sess, err := NewSessionOpts(p0, m, expect, SessionOptions{})
		if err == nil {
			outs[0], _, err = sess.ServeOne()
		}
		errs[0] = err
	}()
	go func() {
		defer wg.Done()
		sess, err := NewSessionOpts(p1, m, nil, SessionOptions{})
		if err == nil {
			outs[1], err = sess.Query(x)
		}
		errs[1] = err
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("session pair deadlocked")
	}
	c0.Close()
	c1.Close()
	return outs, errs
}

func TestRunPartyShapeMismatchIsDetected(t *testing.T) {
	m, inC, hw := tinyModel(21)
	// Party 1's query disagrees with party 0's declared geometry.
	x := tensor.New(1, inC, hw/2, hw/2).RandNorm(rng.New(3), 0.5)
	_, errs := runBothParties(t, m, x, []int{0, inC, hw, hw})
	for party, err := range errs {
		if err == nil {
			t.Fatalf("party %d accepted mismatched query shape", party)
		}
		if !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("party %d error is not the shape diagnostic: %v", party, err)
		}
	}
}

func TestRunPartyShapeAgreementSucceeds(t *testing.T) {
	m, inC, hw := tinyModel(22)
	plainQ := tensor.New(1, inC, hw, hw).RandNorm(rng.New(4), 0.5)
	want := m.Net.Forward(plainQ, false).Data

	cases := []struct {
		name   string
		expect []int
	}{
		{"exact", []int{1, inC, hw, hw}},
		{"wildcard-batch", []int{0, inC, hw, hw}},
		{"nil-accepts-all", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			outs, errs := runBothParties(t, m, plainQ, c.expect)
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("agreeing shapes rejected: %v %v", errs[0], errs[1])
			}
			for party, out := range outs {
				if d := maxAbsDiff(out, want); d > 0.05 {
					t.Fatalf("party %d logits off plaintext by %v", party, d)
				}
			}
		})
	}
}

// TestSessionBatchedFlushes runs a persistent session end to end: several
// differently-sized flushes over one weight-sharing setup, closed by the
// empty-shape sentinel.
func TestSessionBatchedFlushes(t *testing.T) {
	m, inC, hw := tinyModel(23)
	r := rng.New(9)
	flushes := [][]*tensor.Tensor{
		randQueries(r, 2, inC, hw),
		randQueries(r, 1, inC, hw),
		randQueries(r, 4, inC, hw),
	}

	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	codec := fixed.Default64()
	p0 := mpc.NewParty(0, c0, 6, 61, codec)
	p1 := mpc.NewParty(1, c1, 6, 62, codec)

	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := NewSessionOpts(p0, m, []int{0, inC, hw, hw}, SessionOptions{})
		if err != nil {
			serveErr = err
			return
		}
		serveErr = sess.Serve()
	}()

	sess, err := NewSessionOpts(p1, m, nil, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for fi, queries := range flushes {
		packed, counts, err := PackQueries(queries)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := sess.Query(packed)
		if err != nil {
			t.Fatalf("flush %d: %v", fi, err)
		}
		per, err := SplitLogits(logits, counts)
		if err != nil {
			t.Fatalf("flush %d: %v", fi, err)
		}
		for qi, q := range queries {
			plain := m.Net.Forward(q, false).Data
			if d := maxAbsDiff(per[qi], plain); d > 0.05 {
				t.Fatalf("flush %d query %d: diff %v from plaintext", fi, qi, d)
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve loop: %v", serveErr)
	}
}

// hungUpConn fails every shape send: the peer sent its end-of-session
// sentinel and tore the link down before this side's eager answer left.
type hungUpConn struct{ transport.Conn }

func (hungUpConn) SendShape([]int) error { return fmt.Errorf("connection reset by peer") }

// TestServeEndsCleanlyWhenPeerHangsUpFirst pins graceful shutdown over a
// real link: party 0 answers every shape frame eagerly, so its answer to
// the sentinel races the gateway closing the socket. Losing that race is
// a clean end of session, not a serving error.
func TestServeEndsCleanlyWhenPeerHangsUpFirst(t *testing.T) {
	m, inC, hw := tinyModel(24)
	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	codec := fixed.Default64()
	p1 := mpc.NewParty(1, c1, 7, 72, codec)
	setup := make(chan error, 1)
	go func() {
		sess, err := NewSessionOpts(p1, m, nil, SessionOptions{})
		if err == nil {
			err = sess.Close()
		}
		setup <- err
	}()
	sess, err := NewSessionOpts(mpc.NewParty(0, c0, 7, 71, codec), m, []int{0, inC, hw, hw}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-setup; err != nil {
		t.Fatal(err)
	}
	sess.party.Conn = hungUpConn{c0}
	if err := sess.Serve(); err != nil {
		t.Fatalf("sentinel received but the answer could not be sent: Serve must end cleanly, got: %v", err)
	}
}
