package pi

import (
	"sort"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
)

// opKeys returns the sorted LUT keys of an op list, dropping identity ops
// (culled activations compile to nothing, so no timing can exist for them).
func opKeys(ops []hwmodel.NetOp) []string {
	var keys []string
	for _, op := range ops {
		if op.Kind == hwmodel.OpIdentity {
			continue
		}
		keys = append(keys, op.Key())
	}
	sort.Strings(keys)
	return keys
}

// TestTracedOpsMatchTrainScaleOps pins the calibration contract: with
// Config.TrainScaleOps, the recorded op list and the executed per-op
// timing trace name exactly the same LUT keys, occurrence for occurrence,
// so measured wall times can be written into the table the NAS then reads.
func TestTracedOpsMatchTrainScaleOps(t *testing.T) {
	for _, backbone := range []string{"resnet18", "mobilenetv2"} {
		cfg := models.CIFARConfig(0.0625, 11)
		cfg.InputHW = 8
		cfg.NumClasses = 4
		cfg.TrainScaleOps = true
		m, err := models.ByName(backbone, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		if _, err := Run(m, []*tensor.Tensor{tensor.New(2, 3, 8, 8)}, 5, RunOptions{Obs: reg}); err != nil {
			t.Fatalf("%s: %v", backbone, err)
		}
		// Readings come sorted by key; a key seen Count times stands for
		// Count ops of the list.
		var traced []string
		for _, rd := range reg.OpFeed().Readings() {
			if rd.RowSec < 0 {
				t.Fatalf("%s: op %s has negative wall time", backbone, rd.Op.Key())
			}
			for i := int64(0); i < rd.Count; i++ {
				traced = append(traced, rd.Op.Key())
			}
		}
		want := opKeys(m.Ops)
		if len(traced) != len(want) {
			t.Fatalf("%s: traced %d ops, op list has %d", backbone, len(traced), len(want))
		}
		for i := range want {
			if traced[i] != want[i] {
				t.Fatalf("%s: traced key %q != recorded op key %q", backbone, traced[i], want[i])
			}
		}
	}
}

// TestEngineTracesOnlyWhenFed pins the tracer's on/off contract at the
// engine: a fed engine records one reading per executed op — exactly one
// OpAdd per residual block — and an engine whose feed was removed (like
// party 0's, which never had one) records nothing on its next flush.
func TestEngineTracesOnlyWhenFed(t *testing.T) {
	v := netVariants[1] // relu-maxpool-residual: one residual block
	r := rng.New(77)
	net := v.build(r, v.hw, v.inC, 3)
	warmNet(net, r, v.hw, v.inC)
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	q := randQueries(r, 1, v.inC, v.hw)[0]
	feed := &obs.OpFeed{}
	var fedSamples int64
	err = mpc.RunProtocol(9, fixed.Default64(), func(p *mpc.Party) error {
		eng := NewEngine(prog)
		if err := eng.Setup(p); err != nil {
			return err
		}
		for flush := 0; flush < 2; flush++ {
			if p.ID == 1 {
				if flush == 0 {
					eng.SetOpFeed(feed)
				} else {
					fedSamples = feed.Samples()
					eng.SetOpFeed(nil)
				}
			}
			var enc []uint64
			if p.ID == 1 {
				enc = p.EncodeTensor(q.Data)
			}
			xs, err := p.ShareInput(1, enc, q.Shape...)
			if err != nil {
				return err
			}
			if _, err := eng.Infer(xs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fedSamples == 0 {
		t.Fatal("fed flush recorded nothing")
	}
	if got := feed.Samples(); got != fedSamples {
		t.Fatalf("unfed flush recorded %d readings", got-fedSamples)
	}
	adds := int64(0)
	for _, rd := range feed.Readings() {
		if rd.Op.Kind == hwmodel.OpAdd {
			adds += rd.Count
		}
	}
	if adds != 1 {
		t.Fatalf("one residual block traced %d OpAdd readings, want 1", adds)
	}
}
