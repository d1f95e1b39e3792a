// Package core ties the analysis pipeline together into the paper's
// semi-automatic layout tool (Figure 3): the compiler-side affinity graph,
// the Caliper/PMU concurrency data, and the field mapping file combine into
// a Field Layout Graph per struct; greedy clustering materializes a new
// layout; and an advisory report explains the decision.
//
// Two layout modes mirror the evaluation:
//
//   - Suggest: the fully automatic layout of §5.1 — cluster the whole FLG
//     and pack the clusters (what a compiler transformation would apply
//     when legality allows).
//   - Best: the incremental mode of §5.2 — keep only the important edges
//     (all negative + top-20 positive), cluster that subgraph, and apply
//     the resulting constraints as a minimal change to the original layout.
package core

import (
	"fmt"
	"math"
	"sync"

	"structlayout/internal/affinity"
	"structlayout/internal/cluster"
	"structlayout/internal/concurrency"
	"structlayout/internal/diag"
	"structlayout/internal/fieldmap"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/profile"
	"structlayout/internal/quality"
	"structlayout/internal/report"
	"structlayout/internal/sampling"
	"structlayout/internal/staticshare"
)

// Options configures the tool.
type Options struct {
	// LineSize is the coherence-line size (default 128, the Itanium L2).
	LineSize int
	// FLG holds k1/k2 and the alias oracle.
	FLG flg.Options
	// SliceCycles is the concurrency interval (default 1 ms at 1.2 GHz,
	// scaled down by callers running short simulations).
	SliceCycles int64
	// FMF, when non-nil, replaces the field mapping file the analysis
	// would derive from the program — the paper's pipeline reads the FMF
	// from disk, so it can be stale or truncated relative to the program.
	FMF *fieldmap.File
	// Static, when non-nil, enables the zero-profile static sharing
	// analysis (internal/staticshare): its MHP relation cross-validates
	// the sampled concurrency map (feeding the quality score), and its
	// classification becomes a CycleLoss prior whenever the dynamic
	// evidence is missing or the collection grades DEGRADED — so even a
	// trace-less run separates statically-certain write-shared pairs.
	Static *staticshare.Config
	// Strict makes measurement-quality problems fatal: any input the
	// graceful mode would sanitize away or degrade around becomes an
	// error. Use it when a human should re-collect rather than trust a
	// degraded advisory.
	Strict bool
}

func (o *Options) fillDefaults() {
	if o.LineSize == 0 {
		o.LineSize = 128
	}
	if o.SliceCycles == 0 {
		o.SliceCycles = concurrency.DefaultSliceCycles
	}
}

// Analysis is everything the tool needs about one program: the collected
// profile and concurrency data plus the derived field mapping file.
type Analysis struct {
	Prog        *ir.Program
	Profile     *profile.Profile
	Concurrency *concurrency.Map
	FMF         *fieldmap.File
	// Static is the static sharing analysis result, nil when not enabled
	// or when it degraded (see the static-analysis-failed diagnostic).
	Static *staticshare.Result
	Opts   Options
	// Diag accumulates everything the input sanity checks and the
	// downstream graph builders noticed about data quality.
	Diag *diag.Log
	// Quality is the composite measurement-quality assessment of the
	// analysis's inputs (internal/quality): one calibrated score in [0,1]
	// instead of the scattered fixed cutoffs the checks used to gate on.
	Quality *quality.Assessment

	mu     sync.Mutex                          // guards graphs and priors
	graphs map[string]*flg.Graph               // each struct's FLG, built on first use
	priors map[string]*staticshare.PriorResult // the static prior, where it changed the FLG
}

// Degraded reports that some input was unusable and a defined fallback was
// taken (e.g. affinity-only layout). It consults the live log, so graph
// construction that degrades after NewAnalysis is reflected too.
func (a *Analysis) Degraded() bool { return a.Diag.Degraded() }

// QualityVerdict grades the analysis: the score-based verdict, escalated
// to Degraded whenever the diagnostics log recorded a defined fallback.
func (a *Analysis) QualityVerdict() quality.Verdict { return report.Verdict(a.Quality, a.Diag) }

// NewAnalysis assembles an analysis from collected data. trace may be nil
// (no concurrency collection: the tool degrades to locality-only layout,
// like the CGO'06 single-threaded advisor).
//
// Measured inputs are never trusted blindly: the profile is scanned for
// corrupt counts, the trace is sanitized (CPU/block ranges, duplicate
// samples, per-CPU ITC monotonicity), the FMF's coverage of the program is
// measured, and samples are cross-checked against the profile. In graceful
// mode (default) problems are repaired or degraded around and recorded in
// Analysis.Diag; with Options.Strict they are errors.
func NewAnalysis(prog *ir.Program, pf *profile.Profile, trace *sampling.Trace, opts Options) (*Analysis, error) {
	opts.fillDefaults()
	if prog == nil || pf == nil {
		return nil, fmt.Errorf("core: nil program or profile")
	}
	log := diag.NewLog()
	if len(pf.Blocks) != prog.NumBlocks() {
		// Structural mismatch: indexing by BlockID would read out of
		// bounds. Nothing to degrade to — always an error.
		return nil, fmt.Errorf("core: profile has %d block counts, program has %d blocks", len(pf.Blocks), prog.NumBlocks())
	}
	pf, err := sanitizeProfile(pf, opts.Strict, log)
	if err != nil {
		return nil, err
	}
	fmf := opts.FMF
	if fmf == nil {
		fmf = fieldmap.Build(prog)
	}
	cov := fmf.CoverageRatio(prog)
	if cov < 1 {
		sev := diag.Warning
		if cov < 0.5 {
			sev = diag.Degraded
		}
		log.Add(sev, "core", "fmf-coverage",
			"FMF covers %.0f%% of the program's field-touching blocks; uncovered pairs contribute no CycleLoss", cov*100)
		if opts.Strict {
			return nil, fmt.Errorf("core: FMF covers only %.0f%% of field-touching blocks (strict mode)", cov*100)
		}
	}
	a := &Analysis{Prog: prog, Profile: pf, FMF: fmf, Opts: opts, Diag: log,
		graphs: map[string]*flg.Graph{}, priors: map[string]*staticshare.PriorResult{}}
	var clean *sampling.Trace
	if trace != nil {
		clean = sampling.Sanitize(trace, prog.NumBlocks(), log)
		if dropped := len(trace.Samples) - len(clean.Samples); dropped > 0 {
			if opts.Strict {
				return nil, fmt.Errorf("core: trace sanitization dropped %d of %d samples (strict mode)", dropped, len(trace.Samples))
			}
			frac := float64(dropped) / float64(len(trace.Samples))
			// Any drop is worth a diagnostic: small losses used to vanish
			// below the 25% cutoff entirely, so nothing downstream could
			// tell a pristine trace from a mildly damaged one. Now every
			// drop is logged and feeds the quality score's retention
			// component; the Degraded escalation keeps its threshold.
			log.Add(diag.Warning, "core", "trace-drops",
				"sanitization dropped %d of %d samples (%.1f%%)", dropped, len(trace.Samples), frac*100)
			if frac > 0.25 {
				log.Add(diag.Degraded, "core", "trace-quality",
					"sanitization dropped %.0f%% of the trace; concurrency evidence is thin", frac*100)
			}
		}
		checkSamplesAgainstProfile(clean, pf, quality.BlockTimeWeights(prog), log)
		// Restrict concurrency to blocks that touch struct fields: the
		// paper's pipeline only correlates lines present in the FMF.
		relevant := func(b ir.BlockID) bool { return len(fmf.AtBlock(b)) > 0 }
		cm, err := concurrency.Compute(clean, concurrency.Options{SliceCycles: opts.SliceCycles, Relevant: relevant, Diag: log})
		if err != nil {
			return nil, err
		}
		if len(cm.CC) == 0 {
			// The defined fallback of §3: with no usable concurrency
			// evidence the FLG reduces to pure CycleGain, i.e. the CGO'06
			// locality-only advisor. The advisory is flagged so a
			// programmer knows false sharing was not ruled out.
			if opts.Strict {
				return nil, fmt.Errorf("core: concurrency map is empty (strict mode); re-collect the trace")
			}
			log.Add(diag.Degraded, "core", "no-concurrency",
				"concurrency map is empty or unusable; falling back to affinity-only (pure CycleGain) layout")
		} else {
			a.Concurrency = cm
		}
	} else {
		log.Add(diag.Info, "core", "no-trace", "no sample trace provided; locality-only analysis by design")
	}
	if opts.Static != nil {
		sres, serr := staticshare.Analyze(prog, *opts.Static)
		if serr != nil {
			// Same contract as the lock-analysis fallback: a program the
			// static pass cannot walk costs the prior and the cross-check,
			// not the whole advisory.
			if opts.Strict {
				return nil, fmt.Errorf("core: static sharing analysis failed (strict mode): %w", serr)
			}
			log.Add(diag.Degraded, "core", "static-analysis-failed",
				"static sharing analysis failed (%v); proceeding without the MHP cross-check or the CycleLoss prior", serr)
		} else {
			a.Static = sres
		}
	}
	qin := quality.Inputs{
		ProfileBlocks: pf.Blocks,
		BlockWeights:  quality.BlockTimeWeights(prog),
		Trace:         clean,
		SliceCycles:   opts.SliceCycles,
		Coverage:      cov,
	}
	if trace != nil {
		qin.RawSamples = len(trace.Samples)
	}
	if a.Static != nil && a.Concurrency != nil {
		// Cross-validate the sampled CC against the static MHP relation:
		// mass on provably-exclusive block pairs is measurement error and
		// feeds the quality score as a consistency signal.
		chk := a.Static.CheckCC(a.Concurrency)
		qin.HasStaticCheck = true
		qin.StaticAgreement = chk.Agreement
		if chk.ContradictedMass > 0 {
			log.AddN(diag.Warning, "core", "cc-mhp-contradiction", chk.ContradictedPairs,
				"sampled CC mass (%.4g total) sits on block pairs the static MHP relation proves exclusive; the trace misattributes concurrency", chk.ContradictedMass)
		}
	}
	a.Quality = quality.Assess(qin)
	// Downstream graph construction reports into the same log.
	a.Opts.FLG.Diag = log
	return a, nil
}

// sanitizeProfile scans the profile for corrupt counts — negative, NaN or
// infinite — and clamps them to zero on a copy. A corrupt count is not
// recoverable (the true value is unknowable), but a zero count only costs
// optimization opportunity, never correctness of the emitted layout.
func sanitizeProfile(pf *profile.Profile, strict bool, log *diag.Log) (*profile.Profile, error) {
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
	n := 0
	for _, s := range [][]float64{pf.Blocks, pf.LoopIters, pf.LoopEntries} {
		for _, v := range s {
			if bad(v) {
				n++
			}
		}
	}
	if n == 0 {
		return pf, nil
	}
	if strict {
		return nil, fmt.Errorf("core: profile has %d corrupt counts (strict mode)", n)
	}
	out := &profile.Profile{
		ProgramName: pf.ProgramName,
		Blocks:      append([]float64(nil), pf.Blocks...),
		LoopIters:   append([]float64(nil), pf.LoopIters...),
		LoopEntries: append([]float64(nil), pf.LoopEntries...),
	}
	total := 0
	for _, s := range [][]float64{out.Blocks, out.LoopIters, out.LoopEntries} {
		total += len(s)
		for i, v := range s {
			if bad(v) {
				s[i] = 0
			}
		}
	}
	log.AddN(diag.Warning, "core", "profile-corrupt", n, "corrupt profile count (negative/NaN/Inf) clamped to zero")
	if total > 0 && float64(n)/float64(total) > 0.25 {
		log.Add(diag.Degraded, "core", "profile-quality",
			"%.0f%% of profile counts were corrupt; CycleGain weights are unreliable", float64(n)/float64(total)*100)
	}
	return out, nil
}

// checkSamplesAgainstProfile cross-checks the two measured inputs. A block
// the PMU observed executing but the profile claims never ran means the
// two files came from different runs (or one is damaged) — that stays a
// per-block warning. Beyond the binary check, the graded per-block overlap
// of sample mass vs profile mass (quality.MassConsistency) is logged when
// it falls low enough to matter, and feeds the composite quality score.
func checkSamplesAgainstProfile(t *sampling.Trace, pf *profile.Profile, weights []float64, log *diag.Log) {
	overlap, zeroProfile := quality.MassConsistency(pf.Blocks, weights, t.Samples)
	log.AddN(diag.Warning, "core", "sample-profile-mismatch", zeroProfile,
		"block has PMU samples but a zero profile count; profile and trace may be from different runs")
	if len(t.Samples) > 0 && overlap < 0.9 {
		log.Add(diag.Warning, "core", "sample-profile-divergence",
			"sample and profile mass contradict each other on %.0f%% of their mass; the two measurements disagree about where time went", (1-overlap)*100)
	}
}

// Suggestion is the tool's output for one struct.
type Suggestion struct {
	// Auto is the fully automatic clustering layout (§5.1).
	Auto *layout.Layout
	// Report is the advisory text, with the FLG (Report.Graph) and the
	// partition (Report.Clustering) behind Auto.
	Report *report.Report
}

// BuildFLG returns the struct's Field Layout Graph. Every call for one
// struct returns the same graph, which callers must not modify.
func (a *Analysis) BuildFLG(structName string) (*flg.Graph, error) {
	g, _, err := a.buildFLG(structName)
	return g, err
}

// buildFLG returns the struct's graph, built and its edges ordered on the
// first call, so each build-time diagnostic is logged once. The build
// blends in the static sharing prior when the dynamic CycleLoss evidence
// is missing or the collection grades DEGRADED — the zero-profile stand-in
// that keeps statically-certain write-shared pairs off a common cache
// line. The prior result is non-nil exactly when the prior changed it.
func (a *Analysis) buildFLG(structName string) (*flg.Graph, *staticshare.PriorResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.graphs[structName]; ok {
		return g, a.priors[structName], nil
	}
	st := a.Prog.Struct(structName)
	if st == nil {
		return nil, nil, fmt.Errorf("core: unknown struct %q", structName)
	}
	ag := affinity.Build(a.Prog, a.Profile, st)
	g := flg.Build(ag, a.Concurrency, a.FMF, a.Opts.FLG)
	if a.Static != nil && (a.Concurrency == nil || a.QualityVerdict() == quality.Degraded) {
		pr := a.Static.ApplyPrior(g)
		if pr.Certain > 0 || pr.Possible > 0 {
			a.Diag.Add(diag.Info, "core", "static-prior",
				"dynamic concurrency evidence missing or degraded; static sharing prior blended into the FLG (certain write-shared pairs forced onto separate lines)")
			a.priors[structName] = &pr
		}
	}
	g.Edges() // order the edges before the graph is shared
	a.graphs[structName] = g
	return g, a.priors[structName], nil
}

// Suggest runs the automatic pipeline for one struct.
func (a *Analysis) Suggest(structName string, original *layout.Layout) (*Suggestion, error) {
	g, prior, err := a.buildFLG(structName)
	if err != nil {
		return nil, err
	}
	res := cluster.Greedy(g, a.Opts.LineSize)
	lay, err := layout.PackClusters(g.Struct, "flg-auto", res.Clusters, a.Opts.LineSize, cluster.SeparatePredicate(g, res.Clusters))
	if err != nil {
		return nil, err
	}
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	var static *staticshare.StructSummary
	if a.Static != nil {
		static = a.Static.Summary(structName)
		if static != nil {
			static.Prior = prior
		}
	}
	return &Suggestion{
		Auto: lay,
		Report: &report.Report{
			Graph:       g,
			Clustering:  res,
			Suggested:   lay,
			Original:    original,
			Diagnostics: a.Diag,
			Quality:     a.Quality,
			Static:      static,
		},
	}, nil
}

// Lint runs the static linter against the analysis: the classification
// checked against the given layouts plus the CC-versus-MHP cross-check of
// the sampled concurrency map. Returns nil when the static analysis is
// not enabled (or degraded).
func (a *Analysis) Lint(layouts map[string]*layout.Layout) []staticshare.Finding {
	if a.Static == nil {
		return nil
	}
	fs := a.Static.Lint(layouts)
	fs = append(fs, a.Static.LintCC(a.Concurrency)...)
	staticshare.Rank(fs)
	return fs
}

// topKPositive is the incremental mode's budget of positive edges (§5.2
// keeps all negative edges and the top 20 positive ones).
const topKPositive = 20

// Best runs the incremental mode of §5.2: important edges only, cluster the
// subgraph, and alter the original layout so the constraints are met.
func (a *Analysis) Best(structName string, original *layout.Layout) (*layout.Layout, cluster.Result, error) {
	g, err := a.BuildFLG(structName)
	if err != nil {
		return nil, cluster.Result{}, err
	}
	res := cluster.GreedySubgraph(g.Important(topKPositive), a.Opts.LineSize)
	lay, err := layout.ApplyConstraints(original, "incremental", res.Clusters)
	if err != nil {
		return nil, cluster.Result{}, err
	}
	if err := lay.Validate(); err != nil {
		return nil, cluster.Result{}, err
	}
	return lay, res, nil
}
