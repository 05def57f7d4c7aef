package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// benchmarkSpec is BENCHMARK.json at the checkout root: the contract the
// driver reads, and where -compare takes its bounds from.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric entry; only end-to-end metrics carry a bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// fingerprint says what machine and build produced a result file.
type fingerprint struct {
	CPUModel      string `json:"cpu_model"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	KernelWorkers int    `json:"kernel_workers"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:      "unknown",
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		KernelWorkers: kernelWorkers(),
		GoVersion:     runtime.Version(),
		Commit:        "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is recorded when the suite runs inside a git work tree
	// (the driver's checkouts are not one).
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// suiteRun is one run of one workload inside a suite.
type suiteRun struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Repeat   int    `json:"repeat"`
	runResult
}

// suiteResult is the file -workload all writes and -compare reads.
type suiteResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Repeats     int         `json:"repeats"`
	Runs        []suiteRun  `json:"runs"`
	// Claim is what gain the file asserts. The benchmark itself never
	// claims one.
	Claim *string `json:"claim"`
}

// runSuite runs every workload, untraced then traced, `repeats` times, and
// writes benchmark/out/<label>.json. Each run is a fresh process given the
// driver's own arguments, so a suite measures exactly what the driver
// does: heap and GC state never carry from one run into the next. It
// reports whether every run was correct.
func runSuite(seed uint64, seconds float64, repeats int, label string) (bool, error) {
	if repeats < 1 {
		return false, fmt.Errorf("-repeat must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	out := suiteResult{Fingerprint: machineFingerprint(), Seed: seed, Seconds: seconds, Repeats: repeats}
	ok := true
	for rep := 0; rep < repeats; rep++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				fmt.Printf("== %s  trace %d  repeat %d\n", w.Name, trace, rep)
				cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				fmt.Print(string(stdout))
				// Exit 1 still prints a result (correct: false); anything
				// else is a run that produced none.
				var exit *exec.ExitError
				if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
					return false, fmt.Errorf("%s trace %d: %w", w.Name, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return false, fmt.Errorf("%s trace %d: last output line is not a result: %w", w.Name, trace, err)
				}
				ok = ok && res.Correct
				out.Runs = append(out.Runs, suiteRun{Workload: w.Name, Trace: trace, Repeat: rep, runResult: res})
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(outDir, label+".json")
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", path)
	summary, _ := json.Marshal(map[string]any{"correct": ok, "runs": len(out.Runs), "claim": nil})
	fmt.Println(string(summary))
	return ok, nil
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one (workload, metric) row's value from every repeat.
func (s *suiteResult) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// verdict classifies one row: B against A under the metric's bound. A side
// whose own repeats differ by more than the bound cannot resolve a change
// of that size.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	for _, side := range [][]float64{a, b} {
		if m := median(side); m != 0 && (slices.Max(side)-slices.Min(side))/m > bound {
			return "unresolved"
		}
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return "unchanged"
		}
		return "unresolved"
	}
	change := (mb - ma) / ma
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "regressed"
	case change < -bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints one row per (end-to-end metric, workload) and
// reports whether any row regressed.
func compareFiles(pathA, pathB string) (regressed bool, err error) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Printf("A: %s (%s, commit %s)\nB: %s (%s, commit %s)\n", pathA, a.Fingerprint.CPUModel, a.Fingerprint.Commit, pathB, b.Fingerprint.CPUModel, b.Fingerprint.Commit)
	fmt.Printf("%-18s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			v := verdict(va, vb, m.Better, m.Bound)
			change := 0.0
			if len(va) > 0 && len(vb) > 0 && median(va) != 0 {
				change = (median(vb) - median(va)) / median(va)
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %+7.2f%% %6.0f%%  %s\n", w.Name, m.Name, median(va), median(vb), 100*change, 100*m.Bound, v)
			if v == "regressed" {
				regressed = true
			}
		}
	}
	return regressed, nil
}
