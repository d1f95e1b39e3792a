package experiments

import (
	"fmt"

	"structlayout/internal/core"
	"structlayout/internal/faults"
	"structlayout/internal/fieldmap"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/quality"
	"structlayout/internal/sampling"
	"structlayout/internal/workload"
)

// RobustnessRow is one point of the fault-severity sweep: how the layout
// tool's output degrades when the composed fault spec is scaled to
// Severity and applied to the profile, the sample trace and the FMF.
type RobustnessRow struct {
	// Severity is the Scale factor applied to the base spec.
	Severity float64
	// Spec is the scaled spec in canonical form.
	Spec string
	// Samples is the trace size reaching the analysis after injection.
	Samples int
	// Degraded reports whether the analysis flagged itself degraded.
	Degraded bool
	// Diags counts aggregated diagnostic entries.
	Diags int
	// LayoutDistance is the mean (over structs) fraction of fields placed
	// on a different cache line than in the clean automatic layout. Zero
	// severity must reproduce the clean layouts exactly (distance 0).
	LayoutDistance float64
	// SpeedupPct is the throughput gain of the faulted automatic layouts
	// (all structs applied together) over the hand-tuned baseline.
	SpeedupPct float64
	// Quality is the composite measurement-quality score of the faulted
	// analysis, and Verdict its graded band (OK / SUSPECT / DEGRADED) —
	// the row that calibrates internal/quality's thresholds.
	Quality float64
	Verdict string
	// Err is set when the analysis refused the faulted input outright; the
	// quality columns are then meaningless.
	Err string
}

// RobustnessResult is the severity→quality-degradation table.
type RobustnessResult struct {
	Machine string
	// BaseSpec is the unscaled fault shape being swept.
	BaseSpec string
	// CleanSpeedupPct is the clean (severity 0) automatic layouts'
	// throughput gain over baseline — the yardstick the rows decay from.
	CleanSpeedupPct float64
	Rows            []RobustnessRow
}

// DefaultSeverities is the sweep used by the CLI and the tests.
var DefaultSeverities = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9}

// Robustness collects one clean profile+trace, then replays the analysis
// under the base fault spec scaled to each severity, recording how far the
// automatic layouts drift from the clean ones and how much measured
// throughput they give up. The analysis runs in graceful (non-strict) mode:
// the point of the sweep is to watch degradation, not to die at the first
// diagnostic. Expect the quality columns to worsen monotonically with
// severity — in expectation, not pointwise, since the injectors are random.
//
// A nil base sweeps every fault kind at full strength; nil severities use
// DefaultSeverities; a nil topo measures on the 4-way bus machine.
func Robustness(cfg Config, base *faults.Spec, severities []float64, topo *machine.Topology) (*RobustnessResult, error) {
	if base == nil {
		base = faults.New(cfg.BaseSeed)
		for _, k := range faults.Kinds {
			base.Severity[k] = 1
		}
	}
	if len(severities) == 0 {
		severities = DefaultSeverities
	}
	if topo == nil {
		topo = machine.Bus4()
	}

	sw, err := newSweep(cfg)
	if err != nil {
		return nil, err
	}
	suite, baselines, trace := sw.suite, sw.baselines, sw.trace

	clean, _, err := sw.analyze(base.Scale(0))
	if err != nil {
		return nil, fmt.Errorf("experiments: robustness clean analysis: %w", err)
	}
	baseMeas, err := suite.Measure(topo, baselines, cfg.Runs, cfg.BaseSeed)
	if err != nil {
		return nil, err
	}
	cleanAutos := autoLayouts(clean)
	cleanMeas, err := suite.Measure(topo, withAll(baselines, cleanAutos), cfg.Runs, cfg.BaseSeed)
	if err != nil {
		return nil, err
	}

	res := &RobustnessResult{
		Machine:         topo.Name,
		BaseSpec:        base.String(),
		CleanSpeedupPct: cleanMeas.SpeedupOver(baseMeas),
	}
	// Severity cells are independent: each scales the spec, re-runs the
	// analysis and re-measures from the shared base seed, so they fan out
	// over the worker pool and the table assembles by severity index.
	rows, err := parallel.Map(len(severities), func(i int) (RobustnessRow, error) {
		sev := severities[i]
		sp := base.Scale(sev)
		row := RobustnessRow{Severity: sev, Spec: sp.String(), Samples: len(sp.ApplyTrace(trace).Samples)}
		suggs, a, err := sw.analyze(sp)
		if err != nil {
			row.Err = err.Error()
			return row, nil
		}
		autos := autoLayouts(suggs)
		row.Degraded = a.Degraded()
		row.Diags = a.Diag.Len()
		row.Quality = a.Quality.Score
		row.Verdict = a.QualityVerdict().String()
		row.LayoutDistance = layoutDistance(cleanAutos, autos)
		m, err := suite.Measure(topo, withAll(baselines, autos), cfg.Runs, cfg.BaseSeed)
		if err != nil {
			row.Err = err.Error()
			return row, nil
		}
		row.SpeedupPct = m.SpeedupOver(baseMeas)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// sweep holds one clean collection of the built-in workload plus everything
// needed to replay the analysis under scaled fault specs. NewPipeline (at
// the zero spec), Robustness (which also measures throughput) and
// QualityCalibration (analyze-only) share it.
type sweep struct {
	suite, collectSuite *workload.Suite
	baselines           workload.Layouts
	pf                  *profile.Profile
	trace               *sampling.Trace
	fullFMF             *fieldmap.File
	toolOpts            core.Options
}

func newSweep(cfg Config) (*sweep, error) {
	suite, err := workload.NewSuite(cfg.Params)
	if err != nil {
		return nil, err
	}
	lineSize := int(cfg.Params.Cache.LineSize)
	sw := &sweep{suite: suite, baselines: suite.BaselineLayouts(lineSize)}

	collectParams := cfg.Params
	if cfg.CollectScripts > 0 {
		collectParams.ScriptsPerThread = cfg.CollectScripts
	}
	sw.collectSuite, err = workload.NewSuite(collectParams)
	if err != nil {
		return nil, err
	}
	sw.pf, sw.trace, err = sw.collectSuite.Collect(cfg.CollectTopo, sw.collectSuite.BaselineLayouts(lineSize), cfg.BaseSeed)
	if err != nil {
		return nil, fmt.Errorf("experiments: collection: %w", err)
	}
	sw.fullFMF = fieldmap.Build(sw.collectSuite.Prog)

	sw.toolOpts = cfg.Tool
	sw.toolOpts.LineSize = lineSize
	if sw.toolOpts.FLG.AliasOracle == nil {
		sw.toolOpts.FLG.AliasOracle = workload.PrivateAliasOracle(sw.collectSuite.Prog)
	}
	return sw, nil
}

// analyze replays the analysis pipeline over the shared collection with the
// given fault spec applied, and returns every struct's suggestion by label.
func (sw *sweep) analyze(sp *faults.Spec) (map[string]*core.Suggestion, *core.Analysis, error) {
	opts := sw.toolOpts
	opts.FMF = sp.ApplyFMF(sw.fullFMF, sw.collectSuite.Prog)
	a, err := core.NewAnalysis(sw.collectSuite.Prog, sp.ApplyProfile(sw.pf), sp.ApplyTrace(sw.trace), opts)
	if err != nil {
		return nil, nil, err
	}
	suggs := make(map[string]*core.Suggestion, len(workload.Labels()))
	for _, label := range workload.Labels() {
		ks := sw.suite.Struct(label)
		sugg, err := a.Suggest(ks.Type.Name, sw.baselines[label])
		if err != nil {
			return nil, nil, fmt.Errorf("suggest %s: %w", label, err)
		}
		suggs[label] = sugg
	}
	return suggs, a, nil
}

// autoLayouts picks each suggestion's automatic layout.
func autoLayouts(suggs map[string]*core.Suggestion) workload.Layouts {
	autos := make(workload.Layouts, len(suggs))
	for label, sugg := range suggs {
		autos[label] = sugg.Auto
	}
	return autos
}

// QualityPoint is one severity's measurement-quality outcome.
type QualityPoint struct {
	Severity float64
	// Assessment is the faulted analysis's composite assessment.
	Assessment *quality.Assessment
	// Verdict is the graded band after diagnostic escalation.
	Verdict string
	// Err is set when the analysis refused the faulted input outright.
	Err string
}

// QualityCalibration is the analyze-only severity sweep behind the
// thresholds in internal/quality: it collects once, replays the analysis
// under the base spec scaled to each severity, and reports score and
// component breakdown per point — no throughput measurement, so it is cheap
// enough to iterate on while picking SuspectBelow/DegradedBelow. A nil base
// sweeps every fault kind at full strength, matching Robustness.
func QualityCalibration(cfg Config, base *faults.Spec, severities []float64) ([]QualityPoint, error) {
	if base == nil {
		base = faults.New(cfg.BaseSeed)
		for _, k := range faults.Kinds {
			base.Severity[k] = 1
		}
	}
	if len(severities) == 0 {
		severities = DefaultSeverities
	}
	sw, err := newSweep(cfg)
	if err != nil {
		return nil, err
	}
	return parallel.Map(len(severities), func(i int) (QualityPoint, error) {
		sev := severities[i]
		pt := QualityPoint{Severity: sev}
		_, a, err := sw.analyze(base.Scale(sev))
		if err != nil {
			pt.Err = err.Error()
			return pt, nil
		}
		pt.Assessment = a.Quality
		pt.Verdict = a.QualityVerdict().String()
		return pt, nil
	})
}

// QualityReport renders the calibration sweep.
func QualityReport(points []QualityPoint) string {
	s := "quality calibration sweep (composed faults over the built-in workload)\n"
	s += fmt.Sprintf("thresholds: SUSPECT below %.2f, DEGRADED below %.2f\n", quality.SuspectBelow, quality.DegradedBelow)
	for _, pt := range points {
		if pt.Err != "" {
			s += fmt.Sprintf("  severity %.2f  analysis rejected input: %s\n", pt.Severity, pt.Err)
			continue
		}
		s += fmt.Sprintf("  severity %.2f  %8s  %s\n", pt.Severity, pt.Verdict, pt.Assessment)
	}
	return s
}

// withAll overlays every struct's variant layout onto the baselines.
func withAll(base workload.Layouts, variants workload.Layouts) workload.Layouts {
	out := base
	for label, lay := range variants {
		out = out.WithLayout(label, lay)
	}
	return out
}

// layoutDistance averages, over structs and fields, whether a field sits on
// a different cache line than in the reference layout.
func layoutDistance(ref, got workload.Layouts) float64 {
	moved, total := 0, 0
	for label, r := range ref {
		g, ok := got[label]
		if !ok {
			continue
		}
		total += len(r.Offsets)
		moved += movedFields(r, g)
	}
	if total == 0 {
		return 0
	}
	return float64(moved) / float64(total)
}

func movedFields(ref, got *layout.Layout) int {
	n := 0
	for fi := range ref.Offsets {
		if fi >= len(got.Offsets) || ref.LineOf(fi) != got.LineOf(fi) {
			n++
		}
	}
	return n
}

// String renders the degradation table.
func (r *RobustnessResult) String() string {
	s := fmt.Sprintf("robustness sweep on %s (faults: %s)\n", r.Machine, r.BaseSpec)
	s += fmt.Sprintf("clean automatic layouts: %+.2f%% over baseline\n", r.CleanSpeedupPct)
	s += "  severity  samples  degraded  diags  quality   verdict  layout-dist  auto-speedup\n"
	for _, row := range r.Rows {
		if row.Err != "" {
			s += fmt.Sprintf("  %8.2f  %7d  analysis rejected input: %s\n", row.Severity, row.Samples, row.Err)
			continue
		}
		deg := "no"
		if row.Degraded {
			deg = "YES"
		}
		s += fmt.Sprintf("  %8.2f  %7d  %8s  %5d  %7.3f  %8s  %10.0f%%  %+11.2f%%\n",
			row.Severity, row.Samples, deg, row.Diags, row.Quality, row.Verdict,
			row.LayoutDistance*100, row.SpeedupPct)
	}
	return s
}
