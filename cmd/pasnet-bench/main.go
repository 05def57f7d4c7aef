// Command pasnet-bench regenerates the paper's tables and figures from
// this repository's substrates, plus the three serving harnesses that
// still wait on a benchmark/ ledger workload. The exhibits table below is
// the single list of what it can run; `pasnet-bench -h` prints it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"pasnet/internal/experiments"
	"pasnet/internal/hwmodel"
)

// config is one invocation's parsed command line.
type config struct {
	out, log    io.Writer
	profile     experiments.Profile
	profileName string
	hw          hwmodel.Config
	accuracy    bool
	benchJSON   string
}

// exhibits is the ordered dispatch table: the -exhibit help text, the -h
// listing, the unknown-name error and the dispatch itself all read it.
var exhibits = []struct {
	name, usage string
	run         func(c *config) error
}{
	{"fig1", "Fig. 1(c) operator latency breakdown (latency model only, instant)", fig1},
	{"fig5a", "Fig. 5(a) searched model accuracy", func(c *config) error { return fig5(c, true) }},
	{"fig5b", "Fig. 5(b) searched model private-inference latency", func(c *config) error { return fig5(c, false) }},
	{"fig6", "Fig. 6 accuracy vs ReLU count Pareto frontier", fig6},
	{"fig7", "Fig. 7 ReLU-reduction cross-work comparison", fig7},
	{"table1", "Table I PASNet variants vs cross-work (-accuracy adds the trained column)", table1},
	{"ablation", "first- vs second-order architecture update ablation", ablation},
	{"dispatch", "dispatch scheduler under skewed load → BENCH_dispatch.json", dispatchBench},
	{"overload", "admission control under saturating load → BENCH_overload.json", overloadBench},
	{"autodeploy", "calibrated NAS→deploy A/B → BENCH_autodeploy.json", autodeployBench},
}

func exhibitNames() []string {
	names := make([]string, len(exhibits))
	for i, e := range exhibits {
		names[i] = e.name
	}
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit: 0 on success, 1 on a runtime
// error, 2 on a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pasnet-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exhibit := fs.String("exhibit", "fig1", "exhibit to regenerate: "+strings.Join(exhibitNames(), "|"))
	profile := fs.String("profile", "quick", "experiment scale: quick|full")
	accuracy := fs.Bool("accuracy", false, "table1: also train synthetic-accuracy column")
	benchJSON := fs.String("benchjson", "", "existing directory the serving harnesses write BENCH_<exhibit>.json into (empty: stdout only)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: pasnet-bench [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "Exhibits:")
		for _, e := range exhibits {
			fmt.Fprintf(stderr, "  %-10s %s\n", e.name, e.usage)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	c := &config{out: stdout, log: stderr, profileName: *profile, hw: hwmodel.DefaultConfig(), accuracy: *accuracy, benchJSON: *benchJSON}
	switch *profile {
	case "quick":
		c.profile = experiments.QuickProfile()
	case "full":
		c.profile = experiments.FullProfile()
	default:
		fmt.Fprintf(stderr, "unknown profile %q\n", *profile)
		return 2
	}
	for _, e := range exhibits {
		if e.name != *exhibit {
			continue
		}
		// Validate the output directory before any exhibit trains anything.
		err := checkBenchDir(c.benchJSON)
		if err == nil {
			err = e.run(c)
		}
		if err != nil {
			fmt.Fprintln(stderr, "pasnet-bench:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "unknown exhibit %q; known: %s\n", *exhibit, strings.Join(exhibitNames(), " "))
	return 2
}

func fig1(c *config) error {
	fmt.Fprintln(c.out, "Fig. 1(c): 2PC operator latency, ResNet-50 bottleneck (ImageNet, 1 GB/s, ZCU104)")
	fmt.Fprintf(c.out, "%-16s %12s %12s\n", "Operator", "Paper (ms)", "Model (ms)")
	for _, r := range experiments.Fig1Breakdown(c.hw) {
		fmt.Fprintf(c.out, "%-16s %12.2f %12.2f\n", r.Name, r.PaperMS, r.ModelMS)
	}
	return nil
}

func fig5(c *config, accuracy bool) error {
	rows, err := experiments.Fig5(c.profile, c.hw, c.log)
	if err != nil {
		return err
	}
	if accuracy {
		fmt.Fprintln(c.out, "Fig. 5(a): searched model accuracy (synthetic CIFAR stand-in)")
		fmt.Fprintf(c.out, "%-14s %-12s %10s %10s\n", "Backbone", "Setting", "Top-1", "PolyFrac")
		for _, r := range rows {
			fmt.Fprintf(c.out, "%-14s %-12s %10.3f %10.2f\n", r.Backbone, r.Setting, r.Accuracy, r.PolyFraction)
		}
		return nil
	}
	fmt.Fprintln(c.out, "Fig. 5(b): searched model private-inference latency (modelled)")
	fmt.Fprintf(c.out, "%-14s %-12s %12s\n", "Backbone", "Setting", "Latency (ms)")
	for _, r := range rows {
		fmt.Fprintf(c.out, "%-14s %-12s %12.2f\n", r.Backbone, r.Setting, r.LatencyMS)
	}
	fmt.Fprintln(c.out, "\nAll-poly speedups (paper: 15-26x):")
	sp := experiments.SpeedupSummary(rows)
	for _, k := range slices.Sorted(maps.Keys(sp)) {
		fmt.Fprintf(c.out, "  %-14s %.1fx\n", k, sp[k])
	}
	return nil
}

func fig6(c *config) error {
	rows, err := experiments.Fig5(c.profile, c.hw, c.log)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, "Fig. 6: accuracy-ReLU count Pareto frontier")
	fmt.Fprintf(c.out, "%-14s %12s %10s %-12s\n", "Backbone", "ReLU count", "Top-1", "Setting")
	for _, pt := range experiments.Fig6Pareto(rows) {
		fmt.Fprintf(c.out, "%-14s %12d %10.3f %-12s\n", pt.Backbone, pt.ReLUCount, pt.Accuracy, pt.Setting)
	}
	return nil
}

func fig7(c *config) error {
	p := c.profile
	if c.profileName == "quick" {
		// Fig. 7's accuracy mechanism needs the dedicated profile.
		p = experiments.Fig7Profile()
	}
	series, err := experiments.Fig7CrossWork(p, c.log)
	if err != nil {
		return err
	}
	printFig7(c.out, series)
	return nil
}

// printFig7 renders the series and its summary in key order: exhibit
// output must not depend on Go's randomized map iteration.
func printFig7(out io.Writer, series experiments.Fig7Series) {
	fmt.Fprintln(out, "Fig. 7: ReLU-reduction cross-work comparison")
	for _, m := range slices.Sorted(maps.Keys(series)) {
		fmt.Fprintf(out, "%s:\n", m)
		for _, pt := range series[m] {
			fmt.Fprintf(out, "  relu=%-10d acc=%.3f  (%s)\n", pt.ReLUCount, pt.Accuracy, pt.Detail)
		}
	}
	fmt.Fprintln(out, "\nAccuracy at fewest ReLUs (paper: PASNet holds accuracy where linearization collapses):")
	adv := experiments.LowReLUAdvantage(series)
	for _, m := range slices.Sorted(maps.Keys(adv)) {
		fmt.Fprintf(out, "  %-12s %.3f\n", m, adv[m])
	}
}

func table1(c *config) error {
	rows, err := experiments.Table1(c.profile, c.hw, c.accuracy, c.log)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, "Table I: PASNet variants vs cross-work (modelled at paper scale)")
	fmt.Fprint(c.out, experiments.FormatTable1(rows))
	fmt.Fprintln(c.out, "\nSpeedup vs CryptGPU (latency x, comm x):")
	speedups := experiments.SpeedupVsCryptGPU(rows)
	for _, v := range slices.Sorted(maps.Keys(speedups)) {
		fmt.Fprintf(c.out, "  %-12s %6.1fx %6.1fx\n", v, speedups[v][0], speedups[v][1])
	}
	return nil
}

func ablation(c *config) error {
	rows, err := experiments.DARTSOrderAblation(c.profile, c.hw)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, "Ablation: first- vs second-order architecture updates")
	fmt.Fprintf(c.out, "%-14s %10s %12s %10s\n", "Mode", "Top-1", "Latency(ms)", "PolyFrac")
	for _, r := range rows {
		fmt.Fprintf(c.out, "%-14s %10.3f %12.2f %10.2f\n", r.Mode, r.Accuracy, r.LatencyMS, r.PolyFrac)
	}
	return nil
}
