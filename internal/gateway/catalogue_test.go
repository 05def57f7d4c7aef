package gateway

import (
	"errors"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"pasnet/internal/obs"
	"pasnet/internal/rng"
	"pasnet/internal/sched"
	"pasnet/internal/tensor"
)

// metricFamily is one catalogue row: the family's type and label keys.
type metricFamily struct {
	typ    string
	labels string // sorted keys, comma-joined
}

// readmeCatalogue parses the "Metric catalogue" table out of README.md.
func readmeCatalogue(t *testing.T) map[string]metricFamily {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "### Metric catalogue")
	if !ok {
		t.Fatal(`README.md has no "### Metric catalogue" section`)
	}
	row := regexp.MustCompile("^\\| `(pasnet_[a-z_]+)` \\| (counter|gauge|histogram) \\| ([^|]*) \\|")
	label := regexp.MustCompile("`([a-z_]+)`")
	out := map[string]metricFamily{}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue // header and separator rows
		}
		var keys []string
		for _, l := range label.FindAllStringSubmatch(m[3], -1) {
			keys = append(keys, l[1])
		}
		sort.Strings(keys)
		if _, dup := out[m[1]]; dup {
			t.Fatalf("README catalogue lists %s twice", m[1])
		}
		out[m[1]] = metricFamily{typ: m[2], labels: strings.Join(keys, ",")}
	}
	return out
}

// registeredCatalogue groups a registry snapshot into families. Every
// series of a family must agree on type and label keys.
func registeredCatalogue(t *testing.T, snap *obs.Snapshot) map[string]metricFamily {
	t.Helper()
	out := map[string]metricFamily{}
	add := func(name, typ string, labels map[string]string) {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fam := metricFamily{typ: typ, labels: strings.Join(keys, ",")}
		if prev, ok := out[name]; ok && prev != fam {
			t.Fatalf("family %s registered as both %+v and %+v", name, prev, fam)
		}
		out[name] = fam
	}
	for _, p := range snap.Counters {
		add(p.Name, "counter", p.Labels)
	}
	for _, p := range snap.Gauges {
		add(p.Name, "gauge", p.Labels)
	}
	for _, p := range snap.Histograms {
		add(p.Name, "histogram", p.Labels)
	}
	return out
}

// TestMetricCatalogueMatchesREADME serves queries through an Obs-wired
// router until admission control sheds one (so the event counter exists
// too), then requires the registry's families — name, type, label keys —
// to equal README.md's Metric catalogue table in both directions.
func TestMetricCatalogueMatchesREADME(t *testing.T) {
	reg := buildTwoModelRegistry(t, "")
	lb := NewLoopback(reg)
	oreg := obs.New()
	// A 1ns queue-time target sheds every query once the model's latency
	// fit has seen a flush; until then everything is admitted.
	rt, err := NewRouter(reg, RouterOptions{
		Batch: 1, Dial: lb.Dial, Obs: oreg, QueueTarget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := reg.Models()[0]
	spec, _ := reg.Lookup(id)
	r := rng.New(41)
	served, shed := 0, false
	for q := 0; q < 16 && !shed; q++ {
		x := tensor.New(1, spec.Input[0], spec.Input[1], spec.Input[2]).RandNorm(r, 0.5)
		switch _, err := rt.Submit(id, x); {
		case err == nil:
			served++
		case errors.Is(err, sched.ErrShed):
			shed = true
		default:
			t.Fatal(err)
		}
	}
	if served == 0 || !shed {
		t.Fatalf("served %d queries, shed %v: want some of each", served, shed)
	}
	got := registeredCatalogue(t, oreg.Snapshot())
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Wait(); err != nil {
		t.Fatalf("vendor side: %v", err)
	}

	want := readmeCatalogue(t)
	for name, fam := range got {
		doc, ok := want[name]
		if !ok {
			t.Errorf("registered family %s (%s, labels %s) is missing from README's Metric catalogue", name, fam.typ, fam.labels)
		} else if doc != fam {
			t.Errorf("family %s: README says %s with labels %q, registry has %s with labels %q", name, doc.typ, doc.labels, fam.typ, fam.labels)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("README's Metric catalogue lists %s, which an Obs-wired router never registered", name)
		}
	}
}
