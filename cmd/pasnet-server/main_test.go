package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pasnet/internal/gateway"
	"pasnet/internal/models"
	"pasnet/internal/nn"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// smallModel hand-builds a tiny trained-enough network so the serving
// tests never pay backbone training time (mirrors the gateway suite's
// test model).
func smallModel(seed uint64) (*models.Model, []int) {
	r := rng.New(seed)
	const hw = 8
	net := nn.NewNetwork(nn.NewSequential(
		nn.NewConv2D("c1", tensor.ConvSpec{InC: 2, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, false, r),
		nn.NewBatchNorm2D("bn1", 4),
		nn.NewX2Act("a1", hw*hw*4),
		nn.NewGlobalAvgPool(),
		nn.NewFlatten(),
		nn.NewLinear("fc", 4, 3, r),
	))
	for i := 0; i < 4; i++ {
		net.Forward(tensor.New(8, 2, hw, hw).RandNorm(r, 0.5), true)
	}
	return &models.Model{Name: "m", Net: net}, []int{2, hw, hw}
}

// clientReply is one reply frame as the client protocol sees it: logits,
// or a kind-`e` error frame's message.
type clientReply struct {
	logits []float64
	errMsg string
}

// runPipelinedClient speaks the gateway client protocol over one conn:
// pipeline every query, end the stream, then collect every reply in
// order.
func runPipelinedClient(t *testing.T, c transport.Conn, model string, queries []*tensor.Tensor) []clientReply {
	t.Helper()
	maxReply := 0
	for _, x := range queries {
		if err := c.SendModelShape(model, x.Shape); err != nil {
			t.Error(err)
			return nil
		}
		if err := c.SendUint64s(floatBits(x.Data)); err != nil {
			t.Error(err)
			return nil
		}
		if len(x.Data) > maxReply {
			maxReply = len(x.Data)
		}
	}
	if err := c.SendModelShape("", nil); err != nil {
		t.Error(err)
		return nil
	}
	out := make([]clientReply, len(queries))
	for i := range queries {
		vals, errMsg, err := c.RecvReply(maxReply)
		if err != nil {
			t.Errorf("reply %d: %v", i, err)
			return nil
		}
		out[i] = clientReply{logits: bitsToFloats(vals), errMsg: errMsg}
	}
	return out
}

// TestGatewayClientErrorFrameDemux pins the overload client contract:
// concurrent pipelined clients against a quota-1 gateway each get every
// reply, in order, on their own connection — shed queries come back as
// descriptive kind-`e` error frames, bad-geometry queries as their own
// error frames, and the queries admitted alongside them still return
// correct logits. One client's shed or malformed query never poisons a
// co-batched neighbor or drops anyone's connection.
func TestGatewayClientErrorFrameDemux(t *testing.T) {
	m, input := smallModel(101)
	reg := gateway.NewRegistry()
	if err := reg.Register(&gateway.ModelSpec{ID: "m", Model: m, Input: input, Shards: gateway.Shards("m", 1, 77, "")}); err != nil {
		t.Fatal(err)
	}
	lb := gateway.NewLoopback(reg)
	rt, err := gateway.NewRouter(reg, gateway.RouterOptions{
		Batch:       4,
		Dial:        lb.Dial,
		ModelQuotas: map[string]int{"m": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := func(x *tensor.Tensor) []float64 { return m.Net.Forward(x, false).Data }

	const clients = 4
	const perClient = 4
	r := rng.New(5)
	queries := make([][]*tensor.Tensor, clients)
	for c := range queries {
		queries[c] = make([]*tensor.Tensor, perClient)
		for q := range queries[c] {
			if q == 2 {
				// Wrong geometry: must come back as this query's own error
				// frame, nothing more.
				queries[c][q] = tensor.New(1, 3, 6, 6).RandNorm(r, 0.5)
				continue
			}
			queries[c][q] = tensor.New(1, 2, 8, 8).RandNorm(r, 0.5)
		}
	}

	replies := make([][]clientReply, clients)
	var handlerErrs [clients]error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		srv, cli := transport.Pipe()
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			handlerErrs[c] = handleGatewayClient(srv, rt, reg)
		}(c)
		go func(c int, cli transport.Conn) {
			defer wg.Done()
			defer cli.Close()
			replies[c] = runPipelinedClient(t, cli, "m", queries[c])
		}(c, cli)
	}
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}

	served, shed := 0, 0
	for c := 0; c < clients; c++ {
		if handlerErrs[c] != nil {
			t.Fatalf("client %d handler: %v", c, handlerErrs[c])
		}
		if len(replies[c]) != perClient {
			t.Fatalf("client %d got %d replies, want %d", c, len(replies[c]), perClient)
		}
		for q, rep := range replies[c] {
			if q == 2 {
				if !strings.Contains(rep.errMsg, "does not match") {
					t.Fatalf("client %d bad-geometry query must get its own error frame, got %+v", c, rep)
				}
				continue
			}
			if rep.errMsg != "" {
				if !strings.Contains(rep.errMsg, "quota") {
					t.Fatalf("client %d query %d unexpected error frame: %s", c, q, rep.errMsg)
				}
				shed++
				continue
			}
			served++
			want := plain(queries[c][q])
			d := 0.0
			for i := range want {
				if v := math.Abs(rep.logits[i] - want[i]); v > d {
					d = v
				}
			}
			if len(rep.logits) != len(want) || d > 0.05 {
				t.Fatalf("client %d query %d demuxed wrong logits (diff %v): a shed or rejected neighbor poisoned it", c, q, d)
			}
		}
	}
	if served == 0 {
		t.Fatal("no query was served at all")
	}
	if shed == 0 {
		t.Fatal("quota 1 under 4 pipelining clients must shed at least one query")
	}
	t.Logf("served %d, shed %d of %d valid queries", served, shed, clients*(perClient-1))
}

// TestServeClientsWaitsForHandlersOnAcceptError pins the shutdown order:
// when the listener dies mid-accept, serveClients must still wait out the
// handlers already running before it returns — its caller closes the
// router next, and must never do so under a live client handler.
func TestServeClientsWaitsForHandlersOnAcceptError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var handlerDone atomic.Bool
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serveClients(l, 2, func(c transport.Conn) error {
			defer c.Close()
			close(started)
			<-release
			handlerDone.Store(true)
			return nil
		})
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	<-started
	l.Close() // the pending second Accept fails
	// Give a serveClients that abandons its handlers time to return early.
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("a listener closed mid-accept must surface the accept error")
		}
		if !handlerDone.Load() {
			t.Fatal("serveClients returned the accept error while a client handler was still running")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveClients never returned")
	}
}

// TestReplyWriterStopsAdmittingAfterWriteFailure pins the dead-stream
// contract: once a reply send has failed, the very next enqueue returns
// that error — every time, not on a coin flip between the buffered waits
// channel and writeErr — so the read loop stops submitting 2PC work for a
// client that can no longer be answered.
func TestReplyWriterStopsAdmittingAfterWriteFailure(t *testing.T) {
	reply := func() ([]float64, error) { return []float64{1}, nil }
	for round := 0; round < 64; round++ {
		srv, _ := transport.Pipe()
		srv.Close() // every send on a closed endpoint fails
		w := newReplyWriter(srv)
		if err := w.enqueue(reply); err != nil {
			t.Fatalf("round %d: first enqueue: %v", round, err)
		}
		// Wait for the writer to die on the failed send, then put its
		// error back where enqueue looks for it.
		w.writeErr <- <-w.writeErr
		if err := w.enqueue(reply); err == nil {
			t.Fatalf("round %d: enqueue admitted a query after the reply stream died", round)
		}
	}
}

// TestFlagSurface pins the CLI contract of the one serving stack: 26
// flags, no -backbone (folded into -models), no -fixedmasks (fixed weight
// masks are the only protocol), no -pipeline (every pair runs one flush
// schedule), and -party 1 is gone.
func TestFlagSurface(t *testing.T) {
	var cfg config
	fs := newFlagSet(&cfg)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 26 {
		t.Fatalf("pasnet-server declares %d flags, want 26", n)
	}
	if fs.Lookup("backbone") != nil {
		t.Fatal("-backbone must be folded into -models")
	}
	if fs.Lookup("fixedmasks") != nil {
		t.Fatal("-fixedmasks must be gone: there is one weight-mask protocol")
	}
	if fs.Lookup("pipeline") != nil {
		t.Fatal("-pipeline must be gone: there is one flush schedule")
	}
	if err := fs.Parse([]string{"-party", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown -party") {
		t.Fatalf("-party 1 must hit the unknown-role error, got: %v", err)
	}
}

// stdoutLines redirects os.Stdout — where every role reports — into a
// line channel for the duration of a test, the way an operator watches
// the roles' terminals.
func stdoutLines(t *testing.T) <-chan string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	lines := make(chan string, 4096) // roomy: the roles must never block on a slow reader
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	t.Cleanup(func() {
		os.Stdout = old
		w.Close()
		for range lines {
		}
		r.Close()
	})
	return lines
}

// TestRolesEndToEnd drives the README quick-start through run() itself —
// preprocess → -party 0 → -party gateway -client-listen → -party client —
// over loopback TCP, for the default one-model, one-shard deployment
// (store-fed): the client's printed logits must match
// plaintext inference, and the gateway's final status document must show
// a healthy lane that never left its preprocessed stores.
func TestRolesEndToEnd(t *testing.T) {
	store := t.TempDir()
	statusPath := filepath.Join(t.TempDir(), "status.json")
	freeAddr := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	linkAddr, clientAddr := freeAddr(), freeAddr()
	lines := stdoutLines(t)
	var seen []string
	// waitLine consumes role output up to the first line containing want.
	waitLine := func(want string) string {
		t.Helper()
		timeout := time.After(2 * time.Minute)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("stdout closed before %q", want)
				}
				seen = append(seen, line)
				if strings.Contains(line, want) {
					return line
				}
			case <-timeout:
				t.Fatalf("no %q line; role output so far:\n%s", want, strings.Join(seen, "\n"))
			}
		}
	}
	// role runs one pasnet-server command line to completion.
	role := func(args ...string) error {
		var cfg config
		if err := newFlagSet(&cfg).Parse(args); err != nil {
			return err
		}
		return run(cfg)
	}
	const queries = 4
	// Single-row clients gather into flushes of 1..queries rows depending
	// on arrival timing; preprocess every sum so no split can fall back.
	if err := role("-party", "preprocess", "-store", store, "-batches", "1,2,3,4", "-flushes", "4"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- role("-party", "0", "-listen", linkAddr, "-store", store) }()
	waitLine("shard link(s) on " + linkAddr)
	go func() {
		errs <- role("-party", "gateway", "-connect", linkAddr, "-client-listen", clientAddr,
			"-store", store, "-status-json", statusPath)
	}()
	waitLine("client connection(s) on " + clientAddr)
	if err := role("-party", "client", "-client-connect", clientAddr, "-queries", fmt.Sprint(queries)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// The client's replies, as printed, against plaintext inference on the
	// model every role derives from the shared seed.
	var cfg config
	_ = newFlagSet(&cfg) // defaults
	d := buildDataset(cfg.seed)
	m, err := buildModel(cfg.models, cfg.seed, d)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries; q++ {
		line := waitLine(fmt.Sprintf("query %d: logits [", q))
		fields := strings.Fields(line[strings.Index(line, "[")+1 : strings.Index(line, "]")])
		x, _ := d.Batch([]int{queryIndex(cfg.seed, q, d.Len())})
		want := m.Net.Forward(x, false).Data
		if len(fields) != len(want) {
			t.Fatalf("query %d printed %d logits, want %d: %s", q, len(fields), len(want), line)
		}
		for i, f := range fields {
			var got float64
			if _, err := fmt.Sscan(f, &got); err != nil {
				t.Fatalf("query %d: %v in %q", q, err, line)
			}
			if math.Abs(got-want[i]) > 0.05 {
				t.Fatalf("query %d logit %d: 2PC %v vs plaintext %v", q, i, got, want[i])
			}
		}
	}

	data, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc statusDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != 1 {
		t.Fatalf("default deployment must run one lane, status has %d", len(doc.Shards))
	}
	st := doc.Shards[0]
	if st.Queries != queries || st.Fallbacks != 0 || st.Down != "" {
		t.Fatalf("final lane status: %d queries, %d fallbacks, down %q; want %d, 0, healthy", st.Queries, st.Fallbacks, st.Down, queries)
	}
}
