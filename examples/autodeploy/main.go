// autodeploy demonstrates the latency-calibrated NAS→deploy loop step by
// step: calibrate a per-operator latency table on the live 2PC transport,
// search against it, train the winner, register it into a live gateway on
// preprocessed shard stores, and serve queries — then show that the
// calibrated table's end-to-end prediction matches what serving measured,
// and that the instrumented gateway's own telemetry harvests into the
// next calibration without a dedicated probe run.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"pasnet/internal/autodeploy"
	"pasnet/internal/dataset"
	"pasnet/internal/gateway"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"pasnet/internal/obs"
)

func main() {
	cfg := models.CIFARConfig(0.0625, 7)
	cfg.InputHW = 8
	cfg.NumClasses = 4
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: 4, C: 3, HW: 8, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})

	// Step 1: calibrate. The probe suite runs every operator of the
	// backbone's search space through the real 2PC stack — preprocessed
	// stores, the deployment's protocol — and fits a LUT of measured
	// per-op wall times.
	cal, err := autodeploy.Calibrate(autodeploy.CalibrateOptions{
		Backbone: "resnet18", ModelCfg: cfg, HW: hwmodel.DefaultConfig(), Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1  calibrated %d operators (plan %s)\n", cal.Probes, cal.PlanDigest)
	fmt.Printf("        e.g. worst analytic-vs-measured gap: %+.0f%% on %s\n",
		worst(cal.PerOp).ErrFrac*100, worst(cal.PerOp).Key)

	// The artifact round-trips through a CRC-checked JSON file, so a
	// calibration can be reused across runs and machines.
	path := "calibrated.lut.json"
	if err := cal.LUT.WriteFile(path, nil); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	lut, _, err := hwmodel.ReadLUTFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 2  saved and reloaded the artifact: %d entries, source %s\n", len(lut.Entries), lut.Source)

	// Step 3: search against the calibrated table. TrainScaleOps makes
	// the search price the geometry that actually executes under 2PC.
	cfg.TrainScaleOps = true
	sOpts := nas.DefaultOptions("resnet18", 1.0)
	sOpts.ModelCfg = cfg
	sOpts.LUT = lut
	sOpts.Steps = 10
	sOpts.BatchSize = 8
	res, err := nas.Search(sOpts, d, d)
	if err != nil {
		log.Fatal(err)
	}
	tOpts := nas.DefaultTrainOptions()
	tOpts.Steps = 20
	tOpts.BatchSize = 8
	tOpts.LR = 0.01
	if _, err := nas.TrainModel(res.Derived, d, d, tOpts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 3  searched+trained: poly %.2f, %d ReLUs, priced by %s\n",
		res.Choices.PolyFraction(), res.ReLUCount, res.LatencySource)

	// Step 4: register into a live gateway — a per-shard preprocessed
	// store — and serve a query.
	storeRoot, err := os.MkdirTemp("", "autodeploy-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeRoot)
	reg := gateway.NewRegistry()
	spec := &gateway.ModelSpec{
		ID: "winner", Model: res.Derived, Input: []int{3, 8, 8},
		Shards: gateway.Shards("winner", 1, 33, storeRoot),
	}
	if err := reg.Register(spec); err != nil {
		log.Fatal(err)
	}
	if _, err := gateway.WriteShardStores(reg, []int{1}, 4); err != nil {
		log.Fatal(err)
	}
	lb := gateway.NewLoopback(reg)
	// An obs registry on the router instruments every shard lane: wire
	// bytes/frames/rounds per conn, flush-phase spans, scheduler
	// counters, and the per-op timing feed.
	oreg := obs.New()
	rt, err := gateway.NewRouter(reg, gateway.RouterOptions{
		Batch: 1, Dial: lb.Dial, Obs: oreg,
	})
	if err != nil {
		log.Fatal(err)
	}
	x, _ := d.Batch([]int{0})
	logits, err := rt.Submit("winner", x)
	if err != nil {
		log.Fatal(err)
	}
	plain := res.Derived.Net.Forward(x, false)
	fmt.Printf("step 4  served logits %v\n", short(logits))
	fmt.Printf("        plaintext     %v\n", short(plain.Data))

	// Step 5: scrape the serving router. The same registry backs the
	// pasnet-server -metrics-addr endpoint (/metrics, /status.json); here
	// we render the exposition text in-process and pick out the round and
	// byte accounting the paper's cost model talks about.
	var prom strings.Builder
	if err := oreg.WriteProm(&prom); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "pasnet_wire_rounds_total") ||
			strings.HasPrefix(line, "pasnet_sched_flushes_total") {
			fmt.Printf("step 5  scrape: %s\n", line)
		}
	}

	// Step 6: recalibrate from the live feed. The router's per-op
	// timings harvest into a LUT that round-trips the same PASLUT1
	// artifact and feeds nas.Options.LUT — the next search is priced by
	// what serving actually measured, no dedicated probe run needed.
	harvested, err := rt.HarvestLUT(hwmodel.DefaultConfig(), "harvested/serving")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 6  harvested %d live-measured operators from the serving router (source %s)\n",
		len(harvested.Entries), harvested.Source)

	if err := rt.Close(); err != nil {
		log.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredicted online latency: %.2f ms/query (calibrated LUT + measured overhead)\n",
		autodeploy.PredictOnlineMS(lut, cal.OverheadSec, res.Derived.Ops))
}

func worst(checks []autodeploy.OpCheck) autodeploy.OpCheck {
	w := checks[0]
	for _, c := range checks[1:] {
		if c.ErrFrac > w.ErrFrac {
			w = c
		}
	}
	return w
}

func short(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%+.3f", x)
	}
	return out
}
