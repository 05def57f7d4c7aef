// Package archtest holds the repository's architectural invariants as one
// table of rows that `go test ./...` runs. A row either forbids an import
// edge (import reachability over go/build) or says where some names may
// occur (identifier use over go/parser). Every row has a fixture tree
// under testdata/ that breaches it, so each check is known to fire.
package archtest

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// A row is one invariant.
type row struct {
	name    string // subtest name
	why     string // the reason and its ROADMAP item, printed with every breach
	fixture string // testdata/<fixture> is a tree that breaches the row

	// Import reachability: no package the roots (directories below the
	// tree's root) reach through non-test imports is forbid.
	roots  []string
	forbid string

	// Identifier use: in the non-test files under the path prefixes in
	// (nil: the whole tree), names occur only where allow admits them.
	// With funcs set, only function and method declarations of the names
	// count. See site.matches and site.allowed for the two syntaxes.
	in    []string
	names []string
	funcs bool
	allow []string
}

var rows = []row{
	{
		name: "serving packages cannot reach internal/ot",
		why: "comparison runs on dealer AND triples; internal/ot is only the paper's Fig. 4 reference, " +
			"and an import path from anything a served query executes to its modexp is a regression " +
			"(ROADMAP item 5 deletes the package)",
		fixture: "reach",
		roots:   []string{"cmd/pasnet-server", "internal/pi", "internal/gateway"},
		forbid:  "internal/ot",
	},
	{
		name: "one correlation generator",
		why: "mpc.Stream alone turns dealer randomness into correlations: corr.BuildPair deals through it " +
			"and the store decoder regenerates halves through an mpc half stream; internal/corr drawing " +
			"randomness, seeding a generator or deriving fixed masks itself is a second generator, kept " +
			"equal to the first only by tests (ROADMAP item 5)",
		fixture: "generator",
		in:      []string{"internal/corr/"},
		names:   []string{"FillUint64", "DrawBits", "FixedMaskPlain", "pasnet/internal/rng.New"},
	},
	{
		name: "one two-party driver",
		why: "pi.Session runs the compiled program: the gateway serves through it and pi.Run drives a " +
			"loopback pair of them, so calibration measures the path serving runs; outside the Session " +
			"(batch.go) only the demand trace (preprocess.go) builds an Engine, and any other use is a " +
			"second driver (ROADMAP item 5)",
		fixture: "driver",
		names:   []string{"NewEngine"},
		allow: []string{
			"internal/pi/batch.go",
			"internal/pi/preprocess.go",
			"internal/pi/engine.go: declares NewEngine",
		},
	},
	{
		name: "nothing is secret-shared",
		why: "party 0 sends every weight's F = W−b in one frame at setup (mpc.Party.FixWeights), and " +
			"party 1's input share is the encoded query itself, so the first linear op's E' = X − a is " +
			"the one frame that carries the query; a ShareInput use would secret-share a weight again " +
			"or send the query twice (ROADMAP item 13(i)–(ii))",
		fixture: "shareinput",
		in:      []string{"internal/", "cmd/"},
		names:   []string{"ShareInput"},
		allow:   []string{"internal/mpc/party.go: declares Party.ShareInput"},
	},
	{
		name: "shims only the benchmark uses",
		why: "RouterOptions.Pipeline, pi.SessionOptions.FixedMasks, Registry.SetFixedMasks and " +
			"pi.TraceTapeMode are ignored or forwarding leftovers kept only because benchmark/stack.go " +
			"names them; any other use makes a dead option look live (ROADMAP item 1a deletes them)",
		fixture: "shims",
		names:   []string{".Pipeline", "FixedMasks", "SetFixedMasks", "TraceTapeMode"},
		allow: []string{
			"benchmark/",
			"internal/pi/batch.go: declares SessionOptions.FixedMasks",
			"internal/gateway/gateway.go: declares Registry.SetFixedMasks",
			"internal/pi/preprocess.go: declares TraceTapeMode",
		},
	},
	{
		name: "the engine runs a flat program",
		why: "pi.Compile lowers a residual into its body's ops, its shortcut's ops and an add, assigns " +
			"every weight slot and alone decides which two heads share a mask; Setup, Infer and the " +
			"demand trace loop over the weight table and the flat op list, so naming nn.Residual or a " +
			".body/.shortcut field elsewhere walks the tree again (ROADMAP item 14)",
		fixture: "flat",
		in:      []string{"internal/pi/"},
		names:   []string{"pasnet/internal/nn.Residual", ".body", ".shortcut"},
		allow:   []string{"internal/pi/compile.go"},
	},
	{
		name: "one frame primitive",
		why: "transport.Conn's typed Send/Recv methods are written once, in transport's adapter " +
			"(NewConn); MemConn, TCPConn, DelayPipe, FaultConn and obs.WireConn are links that " +
			"implement WriteFrame/ReadFrame, so another definition is a second implementation " +
			"(ROADMAP item 15; benchmark/'s timedConn stays outside until item 1a ports it to a Link)",
		fixture: "frame",
		in:      []string{"internal/", "cmd/"},
		names: []string{
			"SendUints", "SendUint64s", "SendUint64sMax", "SendBytes",
			"SendShape", "SendModelShape", "SendError", "SendReply",
			"RecvUints", "RecvUint64s", "RecvUint64sMax", "RecvBytes",
			"RecvShape", "RecvModelShape", "RecvError", "RecvReply",
		},
		funcs: true,
		allow: []string{"internal/transport/conn.go"},
	},
	{
		name: "received frames are released where they are consumed",
		why: "a received KindUint64s frame's words go back to the transport's free list once the pass " +
			"that reads them is done (transport.Release), and the next frame of that length lands in " +
			"them; only internal/mpc's consumers release, each right after its last read, because a " +
			"release far from that pass would let a later frame overwrite a live share silently " +
			"(ROADMAP item 27)",
		fixture: "release",
		names:   []string{"pasnet/internal/transport.Release"},
		allow:   []string{"internal/mpc/"},
	},
	{
		name: "serving code does not deal",
		why: "a serving party should hold its correlation halves, never the generator: non-test gateway, " +
			"sched and pi code builds no dealer or stream, and calls corr.BuildPair only where the store " +
			"writer and the loopback driver call it today; this list only shrinks, and item 13(iv) " +
			"empties it (ROADMAP item 13)",
		fixture: "dealing",
		in:      []string{"internal/gateway/", "internal/sched/", "internal/pi/"},
		names: []string{
			"pasnet/internal/mpc.NewDealer",
			"pasnet/internal/mpc.NewStream",
			"pasnet/internal/mpc.NewHalfStream",
			"pasnet/internal/corr.BuildPair",
		},
		allow: []string{
			"internal/pi/preprocess.go: in WriteStorePair",
			"internal/pi/run.go: in Run",
		},
	},
}

// repoRoot is the repository root, seen from this package's directory.
const repoRoot = "../.."

func TestInvariants(t *testing.T) {
	tr := load(t, repoRoot)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			found, err := r.breaches(repoRoot, tr.sites)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range found {
				t.Errorf("%s: %s\n\t%s", b.pos, b.msg, r.why)
			}
		})
	}
}

// TestFixturesBreach runs every row on its fixture tree, which must
// breach it exactly on the lines marked "// want": the check fires, and
// the sites the row allows stay quiet.
func TestFixturesBreach(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			root := filepath.Join("testdata", r.fixture)
			tr := load(t, root)
			found, err := r.breaches(root, tr.sites)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, b := range found {
				got = append(got, b.pos)
			}
			sort.Strings(got)
			sort.Strings(tr.wants)
			if len(tr.wants) == 0 || !reflect.DeepEqual(got, tr.wants) {
				t.Errorf("breaches at %v, want %v", got, tr.wants)
			}
		})
	}
}
