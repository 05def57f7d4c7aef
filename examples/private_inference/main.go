// private_inference trains a small all-polynomial ResNet-18 on the
// synthetic CIFAR stand-in, then runs a full two-party private inference —
// secret-shared weights and query, Beaver convolutions, X²act squares —
// and verifies the ciphertext logits against plaintext evaluation. The
// walkthrough ends with the multi-model shard gateway: two registered
// models, per-shard preprocessed correlation stores, and concurrent
// queries routed across independent 2PC session pairs.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	"pasnet/internal/dataset"
	"pasnet/internal/gateway"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"pasnet/internal/pi"
	"pasnet/internal/tensor"
)

func main() {
	// 1. Train a compact all-poly model on the synthetic task.
	cfg := models.CIFARConfig(0.125, 11)
	cfg.InputHW = 16
	cfg.NumClasses = 4
	cfg.Act = models.ActX2
	m, err := models.ByName("resnet18", cfg)
	if err != nil {
		log.Fatal(err)
	}
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 256, Classes: 4, C: 3, HW: 16, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 12,
	})
	train, val := d.Split(0.5, 13)
	tOpts := nas.DefaultTrainOptions()
	tOpts.Steps = 120
	tr, err := nas.TrainModel(m, train, val, tOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained all-poly ResNet-18: val top-1 %.3f\n", tr.ValAccuracy)

	// 2. Private inference on a fresh query, verified against plaintext:
	// a party-0 and a party-1 session come up in-process (party 0 sends
	// every F = W−b), then party 1 queries once.
	x, label := val.Batch([]int{0})
	fmt.Printf("query: validation image with true class %d\n", label[0])
	res, err := pi.Run(m, []*tensor.Tensor{x}, 15, pi.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plaintext logits:  %.4f\n", res.Plain)
	fmt.Printf("ciphertext logits: %.4f\n", res.Output)
	fmt.Printf("max abs error:     %.5f\n", res.MaxAbsErr)
	fmt.Printf("online traffic:    %.2f KB measured (model share: %.2f KB one-time)\n",
		float64(res.OnlineBytes)/1e3, float64(res.SetupBytes)/1e3)
	modeled := m.Cost(hwmodel.DefaultConfig())
	fmt.Printf("modelled hardware: %.2f ms latency, %.2f MB comm on ZCU104 pair\n",
		modeled.TotalSec*1e3, float64(modeled.CommBits)/8/1e6)

	// 3. Batched multi-query inference: four queries share one secure
	// evaluation, amortizing the online cost per query.
	queries := make([]*tensor.Tensor, 4)
	for i := range queries {
		q, _ := val.Batch([]int{i})
		queries[i] = q
	}
	batch, err := pi.Run(m, queries, 16, pi.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatched run of %d queries: max abs error %.5f\n", batch.Batch, batch.MaxAbsErr)
	for i, logits := range batch.PerQuery {
		fmt.Printf("  query %d logits: %.4f\n", i, logits)
	}
	k := float64(batch.Batch)
	fmt.Printf("amortized online cost: %.2f KB and %.2f ms per query (batch total %.2f KB, %.2f ms)\n",
		float64(batch.OnlineBytes)/1e3/k, batch.OnlineSeconds*1e3/k,
		float64(batch.OnlineBytes)/1e3, batch.OnlineSeconds*1e3)

	// 4. The deployment split: preprocess the batch geometry's correlation
	// demand offline, then run an online phase that only replays the
	// store. The store deals through the live dealer's own generator
	// (mpc.Stream), so the logits are bit-identical to step 3 — only the
	// clock placement moves.
	pre, err := pi.Run(m, queries, 16, pi.RunOptions{Preprocess: true})
	if err != nil {
		log.Fatal(err)
	}
	for i := range batch.Output {
		if pre.Output[i] != batch.Output[i] {
			log.Fatalf("preprocessed logits diverged from the live-dealer run at %d", i)
		}
	}
	fmt.Printf("\noffline/online split: %.2f ms offline (trace + store generation), %.2f ms/query online-only\n",
		pre.OfflineSeconds*1e3, pre.OnlineSeconds*1e3/k)
	fmt.Printf("online-only speedup over the live-dealer path: %.2fx, bit-identical logits\n",
		batch.OnlineSeconds/pre.OnlineSeconds)

	// 5. Setup vs online traffic: party 0 sends each layer's F = W−b once,
	// at setup, in one frame; every flush then sends only
	// party 1's masked activation, one way, per linear layer. (Only the
	// weight side may be masked once: it masks the *same* value every
	// flush. Activation masks stay fresh — reusing one would leak query
	// differences.)
	fmt.Printf("\nsetup vs online: %.2f KB once (party 0's frame of F = W−b), then %.2f KB/query online\n",
		float64(pre.SetupBytes)/1e3, float64(pre.OnlineBytes)/1e3/k)

	// 6. The multi-model shard gateway: register two models, provision
	// every (model, shard) pair its own preprocessed correlation store,
	// and route concurrent queries for both models across independent 2PC
	// session pairs. Shard fan-out multiplied only the offline store
	// generation — each pair's online phase still just replays its own
	// store.
	cfg2 := models.CIFARConfig(0.0625, 21)
	cfg2.InputHW = 16
	cfg2.NumClasses = 4
	cfg2.Act = models.ActX2
	m2, err := models.ByName("mobilenetv2", cfg2)
	if err != nil {
		log.Fatal(err)
	}
	tOpts2 := nas.DefaultTrainOptions()
	tOpts2.Steps = 60
	if _, err := nas.TrainModel(m2, train, val, tOpts2); err != nil {
		log.Fatal(err)
	}

	storeRoot, err := os.MkdirTemp("", "pasnet-gateway-stores")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeRoot)
	reg := gateway.NewRegistry()
	for _, spec := range []*gateway.ModelSpec{
		// Two shard pairs per model, each with its own dealer seed and its
		// own store directory under storeRoot.
		{ID: "resnet18", Model: m, Input: []int{3, 16, 16}, Shards: gateway.Shards("resnet18", 2, 33, storeRoot)},
		{ID: "mobilenetv2", Model: m2, Input: []int{3, 16, 16}, Shards: gateway.Shards("mobilenetv2", 2, 33, storeRoot)},
	} {
		if err := reg.Register(spec); err != nil {
			log.Fatal(err)
		}
	}
	// Offline: one store per (model, shard) covering four N=1 flushes.
	paths, err := gateway.WriteShardStores(reg, []int{1}, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngateway: provisioned %d per-shard store files for %v under %s\n",
		len(paths), reg.Models(), storeRoot)

	// Online: the loopback vendor serves every shard's party-0 side
	// in-process; the router owns a session + batcher per shard.
	lb := gateway.NewLoopback(reg)
	rt, err := gateway.NewRouter(reg, gateway.RouterOptions{Batch: 1, Dial: lb.Dial})
	if err != nil {
		log.Fatal(err)
	}
	// Failures are collected and reported after the drain: log.Fatal inside
	// a goroutine would skip the store cleanup and the router/vendor
	// teardown that surfaces the failure's cause.
	var wg sync.WaitGroup
	queryErrs := make(chan error, 2*3)
	for _, id := range reg.Models() {
		spec, _ := reg.Lookup(id)
		for q := 0; q < 3; q++ {
			x, _ := val.Batch([]int{q})
			wg.Add(1)
			go func(id string, spec *gateway.ModelSpec, q int, x *tensor.Tensor) {
				defer wg.Done()
				logits, err := rt.Submit(id, x)
				if err != nil {
					queryErrs <- fmt.Errorf("gateway %s query %d: %w", id, q, err)
					return
				}
				maxErr := pi.MaxAbsErr(logits, spec.Model.Net.Forward(x, false).Data)
				fmt.Printf("gateway %s query %d: logits %.4f (max abs err %.5f)\n", id, q, logits, maxErr)
			}(id, spec, q, x)
		}
	}
	wg.Wait()
	close(queryErrs)
	var routeErr error
	for err := range queryErrs {
		fmt.Println(err)
		routeErr = err
	}
	if err := rt.Close(); err != nil {
		log.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		log.Fatal(err)
	}
	for _, st := range rt.Status() {
		fmt.Printf("gateway %s shard %d: %d queries in %d flushes\n", st.Model, st.Shard, st.Queries, st.Flushes)
	}
	if routeErr != nil {
		log.Fatal(routeErr)
	}
}
