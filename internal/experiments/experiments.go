// Package experiments regenerates the paper's evaluation (§5): Figures 8,
// 9 and 10, plus the §4.3 observation that high-concurrency line pairs are
// stable across collection machines. Each driver returns structured rows so
// both the command-line harness and the benchmark suite can print or assert
// on them.
//
// The pipeline is the paper's: collect a PBO profile and PMU samples by
// running the SDET-like workload under the baseline layouts on a 16-way
// collection machine; build each struct's FLG; produce the automatic, the
// sort-by-hotness, and the incremental ("best") layouts; then measure each
// layout change individually on the target machine against the hand-tuned
// baseline, averaging outlier-trimmed throughput over repeated runs.
package experiments

import (
	"fmt"
	"sort"

	"structlayout/internal/core"
	"structlayout/internal/faults"
	"structlayout/internal/flg"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/workload"
)

// Config parameterizes the reproduction.
type Config struct {
	// Params are the workload's run length and evaluation cache.
	Params workload.Params
	// CollectTopo is the machine used for profile+concurrency collection;
	// the paper uses its 16-way machine.
	CollectTopo *machine.Topology
	// CollectScripts lengthens collection runs (more samples).
	CollectScripts int64
	// Runs is the measured-run count per configuration (the paper uses 10).
	Runs int
	// BaseSeed seeds the whole reproduction.
	BaseSeed int64
	// Tool configures the layout tool.
	Tool core.Options
}

// DefaultConfig returns the calibrated configuration. Runs defaults to 10
// per the paper's protocol; benchmarks drop it to 3 for wall-clock sanity.
func DefaultConfig() Config {
	p := workload.DefaultParams()
	return Config{
		Params:         p,
		CollectTopo:    machine.Way16(),
		CollectScripts: 12,
		Runs:           10,
		BaseSeed:       20070311, // CGO'07 opened March 11 2007
		Tool: core.Options{
			LineSize:    int(p.Cache.LineSize),
			SliceCycles: workload.CollectSliceCycles,
			FLG:         flg.Calibrated(),
		},
	}
}

// Pipeline holds everything derived from one collection phase.
type Pipeline struct {
	Cfg       Config
	Suite     *workload.Suite
	Analysis  *core.Analysis
	Baselines workload.Layouts
	// Auto, Hotness and Best map struct labels to the three evaluated
	// layouts.
	Auto    workload.Layouts
	Hotness workload.Layouts
	Best    workload.Layouts
	// Reports keeps each struct's advisory report text.
	Reports map[string]string
}

// NewPipeline runs collection and the layout tool for all five structs.
// The analysis is the robustness sweep's at the zero fault spec, where
// every injector returns its input unchanged.
func NewPipeline(cfg Config) (*Pipeline, error) {
	sw, err := newSweep(cfg)
	if err != nil {
		return nil, err
	}
	suggs, analysis, err := sw.analyze(faults.New(cfg.BaseSeed))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	p := &Pipeline{
		Cfg:       cfg,
		Suite:     sw.suite,
		Analysis:  analysis,
		Baselines: sw.baselines,
		Auto:      make(workload.Layouts),
		Hotness:   make(workload.Layouts),
		Best:      make(workload.Layouts),
		Reports:   make(map[string]string),
	}
	lineSize := int(cfg.Params.Cache.LineSize)
	hotCounts := profile.ProgramFieldCounts(sw.collectSuite.Prog, sw.pf)
	for _, label := range workload.Labels() {
		ks := sw.suite.Struct(label)
		p.Auto[label] = suggs[label].Auto
		p.Reports[label] = suggs[label].Report.String()

		hot := make(map[int]float64, len(ks.Type.Fields))
		for fi := range ks.Type.Fields {
			hot[fi] = hotCounts[profile.FieldKey{Struct: ks.Type.Name, Field: fi}].Total()
		}
		hotLay, err := layout.SortByHotness(ks.Type, hot, lineSize)
		if err != nil {
			return nil, fmt.Errorf("experiments: hotness layout %s: %w", label, err)
		}
		p.Hotness[label] = hotLay

		best, _, err := analysis.Best(ks.Type.Name, sw.baselines[label])
		if err != nil {
			return nil, fmt.Errorf("experiments: best %s: %w", label, err)
		}
		p.Best[label] = best
	}
	return p, nil
}

// Row is one struct's outcome on one machine.
type Row struct {
	Label string
	// Baseline is the baseline throughput (scripts/hour).
	Baseline float64
	// Pct maps layout name ("auto", "hotness", "best") to speedup percent
	// over baseline.
	Pct map[string]float64
}

// Figure is one regenerated figure.
type Figure struct {
	Name    string
	Machine string
	Rows    []Row
}

// measureVariants evaluates, per struct, each named layout individually
// against the shared baseline measurement.
//
// The baseline and every label×variant cell are independent measurements
// (each re-derives its seeds from the shared base seed), so they fan out
// over the worker pool; cells are enumerated in sorted order and results
// assembled by index, keeping the rows byte-identical at any -j.
func (p *Pipeline) measureVariants(topo *machine.Topology, variants map[string]workload.Layouts) ([]Row, error) {
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	type cell struct{ label, name string }
	var cells []cell
	for _, label := range workload.Labels() {
		for _, name := range names {
			cells = append(cells, cell{label, name})
		}
	}
	// Item 0 is the shared baseline; items 1.. are the cells.
	ms, err := parallel.Map(len(cells)+1, func(i int) (workload.Measurement, error) {
		if i == 0 {
			return p.Suite.Measure(topo, p.Baselines, p.Cfg.Runs, p.Cfg.BaseSeed)
		}
		c := cells[i-1]
		m, err := p.Suite.Measure(topo, p.Baselines.WithLayout(c.label, variants[c.name][c.label]), p.Cfg.Runs, p.Cfg.BaseSeed)
		if err != nil {
			return m, fmt.Errorf("experiments: %s/%s on %s: %w", c.label, c.name, topo.Name, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	base := ms[0]
	var rows []Row
	for _, label := range workload.Labels() {
		rows = append(rows, Row{Label: label, Baseline: base.Mean, Pct: make(map[string]float64)})
	}
	for i, c := range cells {
		rows[i/len(names)].Pct[c.name] = ms[i+1].SpeedupOver(base)
	}
	return rows, nil
}

// Fig8 regenerates Figure 8: automatic layout and sort-by-hotness versus
// baseline on the 128-way machine.
func (p *Pipeline) Fig8() (*Figure, error) {
	rows, err := p.measureVariants(machine.Superdome128(), map[string]workload.Layouts{
		"auto":    p.Auto,
		"hotness": p.Hotness,
	})
	if err != nil {
		return nil, err
	}
	return &Figure{Name: "Figure 8", Machine: "Superdome128", Rows: rows}, nil
}

// Fig9 regenerates Figure 9: the same automatic layouts on the 4-way bus
// machine.
func (p *Pipeline) Fig9() (*Figure, error) {
	rows, err := p.measureVariants(machine.Bus4(), map[string]workload.Layouts{
		"auto": p.Auto,
	})
	if err != nil {
		return nil, err
	}
	return &Figure{Name: "Figure 9", Machine: "Bus4", Rows: rows}, nil
}

// Fig10 regenerates Figure 10: each struct's best layout (automatic or
// incremental) on the 128-way machine. Both candidates are measured; the
// figure reports the better one, which the paper found to be the
// incremental layout for A and B and the automatic one for C and D.
func (p *Pipeline) Fig10() (*Figure, error) {
	rows, err := p.measureVariants(machine.Superdome128(), map[string]workload.Layouts{
		"auto": p.Auto,
		"best": p.Best,
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		auto, best := rows[i].Pct["auto"], rows[i].Pct["best"]
		winner := "auto"
		pct := auto
		if best > auto {
			winner, pct = "incremental", best
		}
		rows[i].Pct["winner:"+winner] = pct
	}
	return &Figure{Name: "Figure 10", Machine: "Superdome128", Rows: rows}, nil
}

// String renders a figure as the paper-style table.
func (f *Figure) String() string {
	s := fmt.Sprintf("%s (%s)\n", f.Name, f.Machine)
	for _, r := range f.Rows {
		s += fmt.Sprintf("  struct %s (baseline %.0f scripts/hour):", r.Label, r.Baseline)
		for _, name := range []string{"auto", "hotness", "best"} {
			if v, ok := r.Pct[name]; ok {
				s += fmt.Sprintf("  %s %+0.2f%%", name, v)
			}
		}
		for name, v := range r.Pct {
			if len(name) > 7 && name[:7] == "winner:" {
				s += fmt.Sprintf("  [%s %+0.2f%%]", name[7:], v)
			}
		}
		s += "\n"
	}
	return s
}
