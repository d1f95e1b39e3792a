// Command sdetbench runs the SDET-like workload (the reproduction of SPEC
// SDM 057.sdet, §5) on a simulated machine under a chosen set of structure
// layouts and reports throughput in scripts/hour, plus the coherence
// simulator's counters. It follows the paper's measurement protocol: N
// measured runs, outliers removed, mean reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/stats"
	"structlayout/internal/workload"
)

func main() {
	var (
		machineName = flag.String("machine", "superdome128", "machine: bus4, way16 or superdome128")
		structLabel = flag.String("struct", "", "struct whose layout to replace (A..E); empty = all baseline")
		layoutName  = flag.String("layout", "baseline", "layout for -struct: baseline or hotness")
		runs        = flag.Int("runs", 10, "measured runs (the paper uses 10)")
		jobs        = flag.Int("j", 0, "max parallel measured runs (default GOMAXPROCS)")
		seed        = flag.Int64("seed", 20070311, "base seed")
		verbose     = flag.Bool("v", false, "print per-run throughput and coherence counters")
	)
	flag.Parse()
	layoutSet := false
	flag.Visit(func(f *flag.Flag) { layoutSet = layoutSet || f.Name == "layout" })
	if msg := usageError(*machineName, *structLabel, *layoutName, layoutSet); msg != "" {
		fmt.Fprintln(os.Stderr, "sdetbench:", msg)
		flag.Usage()
		os.Exit(2)
	}
	if *jobs > 0 {
		parallel.SetLimit(*jobs)
	}
	if err := run(*machineName, *structLabel, *layoutName, *runs, *seed, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "sdetbench:", err)
		os.Exit(1)
	}
}

// usageError names the first flag run would silently ignore or cannot
// resolve: the machine and struct names must exist, a -layout without
// -struct would measure the all-baseline suite, and buildLayout knows
// only baseline and hotness.
func usageError(machineName, structLabel, layoutName string, layoutSet bool) string {
	if _, err := machine.ByName(machineName); err != nil {
		return err.Error()
	}
	switch {
	case structLabel != "" && !slices.Contains(workload.Labels(), structLabel):
		return fmt.Sprintf("-struct %q: want one of %s", structLabel, strings.Join(workload.Labels(), ", "))
	case layoutSet && structLabel == "":
		return "-layout needs -struct (without it every struct keeps its baseline layout)"
	case layoutName != "baseline" && layoutName != "hotness":
		return fmt.Sprintf("-layout %q: want baseline or hotness (use cmd/experiments for auto/best)", layoutName)
	}
	return ""
}

func run(machineName, structLabel, layoutName string, runs int, seed int64, verbose bool) error {
	topo, err := machine.ByName(machineName)
	if err != nil {
		return err
	}
	params := workload.DefaultParams()
	suite, err := workload.NewSuite(params)
	if err != nil {
		return err
	}
	lineSize := int(params.Cache.LineSize)
	layouts := suite.BaselineLayouts(lineSize)

	if structLabel != "" {
		ks := suite.Struct(structLabel)
		if ks == nil {
			return fmt.Errorf("unknown struct %q", structLabel)
		}
		lay, err := buildLayout(suite, structLabel, layoutName, lineSize, topo, seed)
		if err != nil {
			return err
		}
		layouts = layouts.WithLayout(structLabel, lay)
		fmt.Printf("struct %s uses layout %q (%d lines)\n", structLabel, lay.Name, lay.NumLines())
	}

	fmt.Printf("running %d×SDET on %s (%d CPUs)...\n", runs, topo.Name, topo.NumCPUs())
	m, err := suite.Measure(topo, layouts, runs, seed)
	if err != nil {
		return err
	}
	if verbose {
		sorted := append([]float64(nil), m.Runs...)
		sort.Float64s(sorted)
		for i, r := range m.Runs {
			fmt.Printf("  run %2d: %.0f scripts/hour\n", i+1, r)
		}
		res, err := suite.RunOnce(topo, layouts, seed+1, nil)
		if err != nil {
			return err
		}
		c := res.Coherence
		fmt.Printf("  coherence (run 1): accesses=%d hits=%d cold=%d repl=%d coh=%d upgrades=%d false-sharing=%d invalidations=%d\n",
			c.Accesses, c.Hits, c.ColdMisses, c.ReplMisses, c.CohMisses, c.Upgrades, c.FalseSharing, c.Invalidations)
		fmt.Printf("  top coherence offenders (run 1):\n%s", indent(res.FalseSharingReport(suite.Prog, 8), "    "))
	}
	fmt.Printf("throughput: %.0f scripts/hour (trimmed mean of %d runs, stddev %.0f)\n",
		m.Mean, len(m.Runs), stats.StdDev(m.Runs))
	return nil
}

// buildLayout resolves the requested layout for one struct.
func buildLayout(suite *workload.Suite, label, name string, lineSize int, topo *machine.Topology, seed int64) (*layout.Layout, error) {
	ks := suite.Struct(label)
	switch name {
	case "baseline":
		return ks.Baseline(lineSize), nil
	case "hotness":
		// Hotness needs a profile; collect a short one on the target.
		pf, _, err := suite.Collect(topo, suite.BaselineLayouts(lineSize), seed)
		if err != nil {
			return nil, err
		}
		counts := profile.ProgramFieldCounts(suite.Prog, pf)
		hot := make(map[int]float64, len(ks.Type.Fields))
		for fi := range ks.Type.Fields {
			hot[fi] = counts[profile.FieldKey{Struct: ks.Type.Name, Field: fi}].Total()
		}
		return layout.SortByHotness(ks.Type, hot, lineSize)
	default:
		return nil, fmt.Errorf("unknown layout %q (want baseline or hotness; use cmd/experiments for auto/best)", name)
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
