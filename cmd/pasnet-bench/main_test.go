package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
