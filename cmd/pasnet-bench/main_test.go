package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pasnet/internal/experiments"
)

// wantExhibits is the full -exhibit surface, in table order. A name that
// was retired onto the benchmark/ ledger (kernel, pibatch, offline, shard,
// maskreuse, obs) must not come back without this list changing.
var wantExhibits = []string{
	"fig1", "fig5a", "fig5b", "fig6", "fig7", "table1", "ablation",
	"dispatch", "overload", "autodeploy",
}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFig1PrintsOperatorRows(t *testing.T) {
	code, out, errs := runCLI("-exhibit", "fig1")
	if code != 0 || errs != "" {
		t.Fatalf("fig1 exited %d, stderr %q", code, errs)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "Fig. 1(c)") {
		t.Fatalf("fig1 output has no title line:\n%s", out)
	}
	var ops []string
	for _, l := range lines[2:] {
		f := strings.Fields(l)
		if len(f) < 3 {
			t.Fatalf("fig1 row %q has no paper/model columns", l)
		}
		ops = append(ops, f[0])
	}
	want := []string{"Conv1", "ReLU1", "Conv2", "ReLU2", "Conv3", "Conv4", "Add1", "ReLU3"}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("fig1 operator rows = %v, want %v", ops, want)
	}
}

// fig7 and table1 end in a summary built from a map; Go randomizes map
// iteration, so the same run used to print its rows in a different order
// each time. Repeated renderings must be byte-identical (eight repeats:
// four unordered keys would agree by chance less than once in 10⁹).
func TestMapBackedExhibitsPrintDeterministically(t *testing.T) {
	series := experiments.Fig7Series{
		"PASNet":     {{ReLUCount: 0, Accuracy: 0.61, Detail: "lambda=100"}, {ReLUCount: 900, Accuracy: 0.64, Detail: "lambda=0"}},
		"SNL":        {{ReLUCount: 0, Accuracy: 0.31, Detail: "budget=0"}},
		"DeepReDuce": {{ReLUCount: 120, Accuracy: 0.42, Detail: "cull=3"}},
		"DELPHI":     {{ReLUCount: 300, Accuracy: 0.55, Detail: "quad=4"}},
		"CryptoNAS":  {{ReLUCount: 500, Accuracy: 0.58, Detail: "budget=500"}},
	}
	renderers := map[string]func() string{
		"fig7": func() string {
			var b bytes.Buffer
			printFig7(&b, series)
			return b.String()
		},
		"table1": func() string {
			code, out, errs := runCLI("-exhibit", "table1")
			if code != 0 {
				t.Fatalf("table1 exited %d, stderr %q", code, errs)
			}
			return out
		},
	}
	for name, render := range renderers {
		first := render()
		for i := 0; i < 8; i++ {
			if again := render(); again != first {
				t.Fatalf("%s printed differently on a repeat run:\n%s\nvs\n%s", name, first, again)
			}
		}
	}
	if out := renderers["fig7"](); strings.Index(out, "  CryptoNAS") > strings.Index(out, "  SNL") {
		t.Fatalf("fig7 summary is not in key order:\n%s", out)
	}
}

func TestUnknownExhibitListsTable(t *testing.T) {
	if got := exhibitNames(); !reflect.DeepEqual(got, wantExhibits) {
		t.Fatalf("exhibit table = %v, want %v", got, wantExhibits)
	}
	for _, name := range []string{"pibatch", "nonesuch"} {
		code, out, errs := runCLI("-exhibit", name)
		if code != 2 || out != "" {
			t.Fatalf("-exhibit %s: exit %d, stdout %q; want exit 2 and no output", name, code, out)
		}
		_, listed, ok := strings.Cut(strings.TrimSpace(errs), "known: ")
		if !ok || !strings.Contains(errs, `"`+name+`"`) {
			t.Fatalf("-exhibit %s: stderr %q does not name the bad exhibit and the known ones", name, errs)
		}
		if got := strings.Fields(listed); !reflect.DeepEqual(got, wantExhibits) {
			t.Fatalf("-exhibit %s lists %v, want exactly %v", name, got, wantExhibits)
		}
	}
}

// TestBenchJSONMustBeDirectory pins that a bad -benchjson fails before the
// exhibit runs at all: a harness would otherwise train and serve for a
// minute before finding it cannot write its report.
func TestBenchJSONMustBeDirectory(t *testing.T) {
	last := &exhibits[len(exhibits)-1]
	ran := false
	defer func(orig func(*config) error) { last.run = orig }(last.run)
	last.run = func(*config) error { ran = true; return nil }

	file := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{file, filepath.Join(t.TempDir(), "missing")} {
		code, _, errs := runCLI("-exhibit", last.name, "-benchjson", target)
		if code != 1 || ran || !strings.Contains(errs, target) {
			t.Fatalf("-benchjson %s: exit %d, exhibit ran: %v, stderr %q; want exit 1 naming the target before the exhibit runs", target, code, ran, errs)
		}
	}
	if code, _, errs := runCLI("-exhibit", last.name, "-benchjson", t.TempDir()); code != 0 || !ran {
		t.Fatalf("-benchjson <dir>: exit %d, exhibit ran: %v, stderr %q", code, ran, errs)
	}
}
