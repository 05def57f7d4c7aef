package main

import (
	"os"
	"regexp"
	"testing"
)

// The benchmark addresses BENCHMARK.json, .bench_build/ and benchmark/out/
// relative to the checkout root, which is where the driver runs it from.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinyProbes keeps the traced smoke runs to a second or two.
var tinyProbes = probeSizes{dispatchQueries: 200, sessionFlushes: 2, otTransfers: 64, corrFlushes: 1, hopTrips: 5}

// tiny shrinks a workload to a single epoch of a few queries per pass.
func tiny(w workload) *workload {
	w.Warmup, w.EpochQueries = 1, 2
	return &w
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesCode holds BENCHMARK.json and the code's metric and
// workload tables equal: names, units, order, and each workload's why.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if got := spec.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", i, got.Name, got.Unit, m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range perLayerMetrics {
		if got := spec.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", i, got.Name, got.Unit, m.Name, m.Unit)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// checkRun asserts a run verified every reply and reported exactly the
// named metrics.
func checkRun(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("run reported %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.Name, got, d.Unit)
		}
	}
}

// TestWorkloadsSmoke serves every workload at tiny counts: every reply
// verifies, the end-to-end metric set is exact, and the counted metric
// repeats exactly on a second run — with another seed, so it also shows
// the wire volume does not depend on query contents (obliviousness).
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			first, err := runOne(tiny(w), runConfig{seed: 1, seconds: 0.01, probes: tinyProbes})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, first, endToEndMetrics)
			if w.Clients > 1 {
				return // gather makes rows per flush, and so bytes per row, vary
			}
			second, err := runOne(tiny(w), runConfig{seed: 2, seconds: 0.01, probes: tinyProbes})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, second, endToEndMetrics)
			a, b := first.Metrics["online_kb_per_query"].Value, second.Metrics["online_kb_per_query"].Value
			if a != b {
				t.Errorf("online_kb_per_query differs across seeds: %v vs %v", a, b)
			}
		})
	}
}

// TestTracedSmoke runs the traced pass and the probes of every workload at
// tiny sizes: the per-layer metric set is exact, the trace accounts for
// the query time, and the counted per-layer metrics repeat exactly.
func TestTracedSmoke(t *testing.T) {
	counted := []string{"transport.frames_per_flush", "corr.store_kb_per_query", "kernel.macs_per_flush"}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			first, err := runOne(tiny(w), runConfig{seed: 1, seconds: 0.01, trace: true, probes: tinyProbes})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, first, perLayerMetrics)
			if w.Clients > 1 || w.Delay > 0 {
				return // the delayed links make a second traced run slow; one plain-pipe workload shows repeatability
			}
			second, err := runOne(tiny(w), runConfig{seed: 1, seconds: 0.01, trace: true, probes: tinyProbes})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range counted {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs across two same-seed runs: %v vs %v", name, a, b)
				}
			}
		})
	}
}
