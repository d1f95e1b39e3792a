// Command layouttool is the reproduction of the paper's semi-automatic
// structure-layout tool (§4, Figure 3). It drives the whole pipeline for
// one of the kernel structs A..E of the built-in SDET-like workload:
//
//  1. collect a PBO profile and synchronized PMU samples by running the
//     workload under the baseline layouts on a collection machine,
//  2. build the struct's Field Layout Graph (CycleGain from affinity,
//     CycleLoss from CodeConcurrency joined with the field mapping file),
//  3. cluster it greedily and emit the suggested layout, together with the
//     evidence (intra-/inter-cluster weights, large positive and negative
//     edges) a programmer needs to adopt or adapt it,
//  4. optionally emit the incremental ("best", §5.2) layout that minimally
//     alters the hand-tuned baseline.
//
// In the paper the compiler and HP Caliper supply the inputs for arbitrary
// programs; here the workload is compiled in, and the intermediate products
// (profile, concurrency map, field mapping file, sample trace) can be
// written with -dump for inspection or for replay via -profile/-trace.
// With -program the same steps run over a struct of an irtext program
// (docs/DSL.md): the two modes differ only in how they load, collect and
// configure, and share the advisory that follows.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"structlayout/internal/core"
	"structlayout/internal/driver"
	"structlayout/internal/faults"
	"structlayout/internal/fieldmap"
	"structlayout/internal/flg"
	"structlayout/internal/gofront"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/quality"
	"structlayout/internal/report"
	"structlayout/internal/sampling"
	"structlayout/internal/staticshare"
	"structlayout/internal/transform"
	"structlayout/internal/workload"
)

// options holds the command line. Every field points at its flag's value.
type options struct {
	programIn   *string
	structLabel *string
	collectOn   *string
	layoutMode  *string
	split       *bool
	rank        *bool
	dotOut      *string
	seed        *int64
	scripts     *int64
	profileIn   *string
	traceIn     *string
	dumpDir     *string
	injectSpec  *string
	strict      *bool
	measureRuns *int
	jobs        *int
	showQuality *bool
	cacheDir    *string
	lintMode    *bool
	lintDir     *string
	goLint      *string
	lintJSON    *string
	cacheGC     *bool
	cacheGCAge  *time.Duration
	cacheGCSize *int64
}

// defineFlags registers the command line on fs.
func defineFlags(fs *flag.FlagSet) *options {
	return &options{
		programIn:   fs.String("program", "", "irtext program file; when set, -struct names a struct of that program"),
		structLabel: fs.String("struct", "A", "kernel struct to lay out: A..E (built-in workload) or a struct name of -program"),
		collectOn:   fs.String("collect-machine", "way16", "collection machine: bus4, way16 or superdome128"),
		layoutMode:  fs.String("mode", "both", "layout mode: auto, best or both"),
		split:       fs.Bool("split", false, "also print the hot/cold structure-splitting advisory"),
		rank:        fs.Bool("rank", false, "rank all structs by optimization potential instead of advising one"),
		dotOut:      fs.String("dot", "", "write the struct's Field Layout Graph as Graphviz DOT to this file"),
		seed:        fs.Int64("seed", 20070311, "collection seed"),
		scripts:     fs.Int64("collect-scripts", defaultScripts, "SDET scripts per thread during collection"),
		profileIn:   fs.String("profile", "", "read the profile from this JSON file instead of collecting"),
		traceIn:     fs.String("trace", "", "read the sample trace from this JSON file instead of collecting"),
		dumpDir:     fs.String("dump", "", "write profile.json, trace.json, concmap.txt and fmf.txt to this directory"),
		injectSpec:  fs.String("inject", "", `measurement-fault injection spec, e.g. "loss=0.5,drift=0.3,seed=7" or "all=0.5" (docs/FAULTS.md)`),
		strict:      fs.Bool("strict", false, "treat degraded measurement data as fatal instead of degrading gracefully"),
		measureRuns: fs.Int("measure", 0, "with -program: also measure each struct's automatic layout individually over this many runs"),
		jobs:        fs.Int("j", 0, "max parallel measured runs (default GOMAXPROCS)"),
		showQuality: fs.Bool("quality", false, "print the measurement-quality assessment and gate the exit code on its verdict (0 OK, 3 SUSPECT, 4 DEGRADED)"),
		cacheDir:    fs.String("cache-dir", "", "persist the measurement cache here; warm re-runs reuse identical collections and measurements"),
		lintMode:    fs.Bool("lint", false, "run the static structure-layout linter (no measurement); exit 0 clean, 3 findings"),
		lintDir:     fs.String("lint-dir", "", "lint every *.slp program under this directory, recursively (implies -lint)"),
		goLint:      fs.String("go-lint", "", "lint Go packages (comma/space-separated dirs, \"dir/...\" recurses): extract goroutines, lock regions and struct accesses, run the static linter, print reordering suggestions; exit 0 clean, 3 findings"),
		lintJSON:    fs.String("lint-json", "", "with -lint: also write the findings as JSON to this file (\"-\" for stdout)"),
		cacheGC:     fs.Bool("cache-gc", false, "age out disk-tier cache entries (requires -cache-dir), print the pass summary, and exit"),
		cacheGCAge:  fs.Duration("cache-gc-age", 720*time.Hour, "with -cache-gc: remove entries not touched within this duration (0 disables the age criterion)"),
		cacheGCSize: fs.Int64("cache-gc-bytes", 0, "with -cache-gc: evict oldest entries until the disk tier fits this byte budget (0 = unlimited)"),
	}
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if msgs := usageErrors(flag.CommandLine, o); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "layouttool:", m)
		}
		os.Exit(2)
	}
	mode := o.mode()
	if *o.jobs > 0 {
		parallel.SetLimit(*o.jobs)
	}
	if *o.cacheDir != "" {
		if err := memo.Shared().SetDir(*o.cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "layouttool:", err)
			os.Exit(2)
		}
	}
	switch mode {
	case "cache-gc":
		os.Exit(runCacheGC(*o.cacheDir, *o.cacheGCAge, *o.cacheGCSize))
	case "go-lint":
		os.Exit(runGoLint(*o.goLint, *o.lintJSON, *o.cacheDir))
	case "lint", "program lint":
		os.Exit(runLint(*o.programIn, *o.lintDir, *o.lintJSON, *o.collectOn))
	}
	spec, err := faults.ParseSpec(*o.injectSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layouttool:", err)
		os.Exit(2)
	}
	var analysis *core.Analysis
	switch mode {
	case "rank", "program rank":
		analysis, err = runRank(*o.programIn, *o.collectOn, *o.seed, *o.scripts, spec, *o.strict)
	case "program":
		analysis, err = runProgramFile(*o.programIn, *o.structLabel, *o.collectOn, *o.layoutMode, *o.seed, *o.split, *o.dotOut, spec, *o.strict, *o.measureRuns)
	default:
		analysis, err = run(*o.structLabel, *o.collectOn, *o.layoutMode, *o.seed, *o.scripts, *o.split, *o.profileIn, *o.traceIn, *o.dumpDir, *o.dotOut, spec, *o.strict)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layouttool:", err)
		os.Exit(1)
	}
	if *o.showQuality {
		os.Exit(qualityGate(analysis))
	}
}

// mode names the task the command line selects, checked in this order:
// cache-gc, go-lint, program lint (-lint-dir, or -lint with -program),
// lint (the built-in suite), program rank (-rank with -program), rank
// (the built-in suite), program (a -program analysis) or built-in (a
// built-in SDET struct).
func (o *options) mode() string {
	switch {
	case *o.cacheGC:
		return "cache-gc"
	case *o.goLint != "":
		return "go-lint"
	case *o.lintDir != "" || *o.lintMode && *o.programIn != "":
		return "program lint"
	case *o.lintMode:
		return "lint"
	case *o.rank && *o.programIn != "":
		return "program rank"
	case *o.rank:
		return "rank"
	case *o.programIn != "":
		return "program"
	}
	return "built-in"
}

// modeFlags lists the flags each mode reads; -j and -cache-dir are read
// in every mode. Built-in lint reads the collection machine, whose CPU
// count sets the suite's threads, but not -collect-scripts: the script
// count scales every static frequency alike and moves no finding. A
// program runs its own declared iterations, so no program mode reads
// -collect-scripts.
var modeFlags = map[string]string{
	"cache-gc":     "cache-gc cache-gc-age cache-gc-bytes",
	"go-lint":      "go-lint lint-json",
	"program lint": "lint lint-dir lint-json program",
	"lint":         "lint lint-json collect-machine",
	"program rank": "rank program collect-machine seed inject strict quality",
	"rank":         "rank collect-machine seed collect-scripts inject strict quality",
	"program":      "program struct collect-machine mode seed split dot inject strict measure quality",
	"built-in":     "struct collect-machine mode seed collect-scripts split profile trace dump dot inject strict quality",
}

// usageErrors returns the command line's usage errors, found before any
// work starts: each flag set on fs that the selected mode never reads, and
// a -mode other than auto, best or both in a mode that reads it.
func usageErrors(fs *flag.FlagSet, o *options) []string {
	mode := o.mode()
	var msgs []string
	for _, name := range unreadFlags(fs, mode) {
		msgs = append(msgs, fmt.Sprintf("-%s is not read in %s mode", name, mode))
	}
	if slices.Contains(strings.Fields(modeFlags[mode]), "mode") {
		switch *o.layoutMode {
		case "auto", "best", "both":
		default:
			msgs = append(msgs, fmt.Sprintf("unknown -mode %q (want auto, best or both)", *o.layoutMode))
		}
	}
	return msgs
}

// unreadFlags returns the flags set on fs that mode never reads, so a
// flag the chosen mode would silently ignore is a usage error instead.
func unreadFlags(fs *flag.FlagSet, mode string) []string {
	reads := map[string]bool{"j": true, "cache-dir": true}
	for _, name := range strings.Fields(modeFlags[mode]) {
		reads[name] = true
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			unread = append(unread, f.Name)
		}
	})
	return unread
}

// qualityGate prints the composite measurement-quality assessment and maps
// its verdict to an exit code, so CI can assert that faulted collections
// are flagged: 0 for OK, 3 for SUSPECT, 4 for DEGRADED.
func qualityGate(analysis *core.Analysis) int {
	fmt.Printf("measurement quality: %s\n", analysis.Quality)
	switch analysis.QualityVerdict() {
	case quality.Suspect:
		return 3
	case quality.Degraded:
		return 4
	default:
		return 0
	}
}

// runCacheGC ages the disk-tier measurement cache and exits: 0 on a clean
// pass, 2 on usage or filesystem errors.
func runCacheGC(cacheDir string, maxAge time.Duration, maxBytes int64) int {
	if cacheDir == "" {
		fmt.Fprintln(os.Stderr, "layouttool: -cache-gc requires -cache-dir")
		return 2
	}
	res, err := memo.Shared().GC(time.Now(), maxAge, maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layouttool:", err)
		return 2
	}
	fmt.Printf("cache-gc %s: %s\n", cacheDir, res)
	return 0
}

// runLint runs the static structure-layout linter — no collection, no
// measurement — over a DSL program, a directory of them, or the built-in
// workload, and maps the outcome to an exit code the same way -quality
// does: 0 clean, 3 findings, 1 analysis error.
func runLint(programIn, lintDir, lintJSON, collectOn string) int {
	var findings []staticshare.Finding
	var err error
	switch {
	case lintDir != "":
		findings, err = lintTree(lintDir)
	case programIn != "":
		findings, err = lintProgramFile(programIn)
	default:
		findings, err = lintBuiltin(collectOn)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layouttool:", err)
		return 1
	}
	staticshare.Rank(findings)
	skipped := 0
	for _, f := range findings {
		if f.Code == staticshare.CodeLintSkipped {
			skipped++
		}
	}
	if len(findings) == 0 {
		fmt.Println("lint: no findings")
	} else {
		fmt.Printf("lint: %d finding(s)\n", len(findings))
		for _, f := range findings {
			fmt.Printf("  %-8s %-28s %s\n", f.Severity, f.Code, f.Message)
		}
	}
	if skipped > 0 {
		fmt.Printf("lint: %d file(s) skipped\n", skipped)
	}
	if lintJSON != "" {
		if jerr := writeFindingsJSON(findings, lintJSON); jerr != nil {
			fmt.Fprintln(os.Stderr, "layouttool:", jerr)
			return 1
		}
	}
	if len(findings) > 0 {
		return 3
	}
	return 0
}

// lintJSONSchemaVersion versions the -lint-json envelope so consumers
// can select on it before parsing the findings array. Bump it whenever
// the envelope or the Finding encoding changes incompatibly.
const lintJSONSchemaVersion = 1

// writeFindingsJSON writes ranked findings as a versioned JSON envelope
// ({schemaVersion, findings}) to a file or stdout.
func writeFindingsJSON(findings []staticshare.Finding, dest string) error {
	inner, err := staticshare.MarshalFindings(findings)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(struct {
		SchemaVersion int             `json:"schemaVersion"`
		Findings      json.RawMessage `json:"findings"`
	}{lintJSONSchemaVersion, inner}, "", "  ")
	if err != nil {
		return err
	}
	if dest == "-" {
		_, err = os.Stdout.Write(append(raw, '\n'))
		return err
	}
	return os.WriteFile(dest, append(raw, '\n'), 0o644)
}

// runGoLint lints real Go packages through the gofront extraction
// pipeline, memoizing per-package reports in the shared cache (with
// -cache-dir, persistently: a warm run replays untouched packages
// instead of re-typechecking them). Exit codes mirror -lint: 0 clean, 3
// findings, 1 when nothing could be analyzed at all. Per-package
// failures degrade to lint-skipped findings (which, being findings,
// also exit 3 — a partially-skipped run is not a clean one).
func runGoLint(patterns, lintJSON, cacheDir string) int {
	pats := strings.FieldsFunc(patterns, func(r rune) bool { return r == ',' || r == ' ' })
	cache := memo.Shared()
	before := cache.Stats()
	reports, err := gofront.Run(pats, gofront.Options{Cache: cache})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layouttool:", err)
		return 1
	}
	fmt.Print(gofront.RenderText(reports))
	if cacheDir != "" {
		// Stats go to stderr so stdout stays byte-comparable across runs.
		d := cache.Stats().Sub(before)
		fmt.Fprintf(os.Stderr, "go-lint: cache %d hit(s) / %d miss(es)\n", d.Hits(), d.Misses)
	}
	analyzed := 0
	for _, r := range reports {
		if r.Err == nil {
			analyzed++
		}
	}
	findings := gofront.AllFindings(reports)
	if lintJSON != "" {
		if jerr := writeFindingsJSON(findings, lintJSON); jerr != nil {
			fmt.Fprintln(os.Stderr, "layouttool:", jerr)
			return 1
		}
	}
	if analyzed == 0 {
		fmt.Fprintln(os.Stderr, "layouttool: go-lint analyzed no packages")
		return 1
	}
	if len(findings) > 0 {
		return 3
	}
	return 0
}

// lintProgramFile lints one parsed DSL program against its declaration-
// order layouts.
func lintProgramFile(path string) ([]staticshare.Finding, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file, err := irtext.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	findings, _, err := staticshare.LintFile(file, 128)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return findings, nil
}

// lintTree lints every *.slp file under root, aggregating the findings
// with the file path prefixed to each message. The walk collects paths
// serially (WalkDir order is deterministic), the per-file lint fans out
// over internal/parallel with gather-by-index, and the final Rank is a
// total order — so the output is byte-identical at any -j. One bad file
// must not kill the run: unreadable or unparseable inputs degrade to a
// per-file lint-skipped diagnostic and the walk continues; only a tree
// where nothing linted at all is an error.
func lintTree(root string) ([]staticshare.Finding, error) {
	var all []staticshare.Finding
	var paths []string
	skipped := 0
	skip := func(path string, err error) {
		skipped++
		all = append(all, staticshare.Skipped(path, err))
	}
	walkErr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if path == root {
				return err // the root itself is unusable: nothing to walk
			}
			skip(path, err)
			if d != nil && d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		if !d.IsDir() && filepath.Ext(path) == ".slp" {
			paths = append(paths, path)
		}
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	type fileRes struct {
		findings []staticshare.Finding
		err      error
	}
	results, _ := parallel.Map(len(paths), func(i int) (fileRes, error) {
		findings, ferr := lintProgramFile(paths[i])
		return fileRes{findings, ferr}, nil
	})
	linted := 0
	for i, res := range results {
		if res.err != nil {
			skip(paths[i], res.err)
			continue
		}
		linted++
		for _, f := range res.findings {
			f.Message = paths[i] + ": " + f.Message
			all = append(all, f)
		}
	}
	if linted == 0 {
		if skipped > 0 {
			return nil, fmt.Errorf("lint: every *.slp program under %s failed to lint (%d skipped)", root, skipped)
		}
		return nil, fmt.Errorf("lint: no *.slp programs under %s", root)
	}
	return all, nil
}

// lintBuiltin lints the built-in SDET workload against its hand-tuned
// baseline layouts, under the harness its collection runs use on the
// collection machine at the default script count.
func lintBuiltin(collectOn string) ([]staticshare.Finding, error) {
	topo, err := machine.ByName(collectOn)
	if err != nil {
		return nil, err
	}
	suite, err := builtinSuite(defaultScripts)
	if err != nil {
		return nil, err
	}
	res, err := staticshare.Analyze(suite.Prog, staticshare.FileConfig(suite.File(topo)))
	if err != nil {
		return nil, err
	}
	return res.Lint(suite.StructLayouts(nil)), nil
}

// runRank prints the whole-program struct ranking (the §5.1 key-structure
// identification step) for the built-in workload or a DSL program.
func runRank(programIn, collectOn string, seed, scripts int64, spec *faults.Spec, strict bool) (*core.Analysis, error) {
	topo, err := machine.ByName(collectOn)
	if err != nil {
		return nil, err
	}
	var analysis *core.Analysis
	if programIn != "" {
		file, err := loadProgram(programIn, topo)
		if err != nil {
			return nil, err
		}
		cfg := driver.Config{Topo: topo, Seed: seed, Inject: spec}
		pf, trace, cycles, err := driver.CollectCached(file, cfg)
		if err != nil {
			return nil, err
		}
		analysis, err = core.NewAnalysis(file.Prog, pf, trace, driver.AnalysisOptions(file, cfg.LineSize(), cycles, spec, strict))
		if err != nil {
			return nil, err
		}
	} else {
		suite, err := builtinSuite(scripts)
		if err != nil {
			return nil, err
		}
		pf, trace, err := suite.Collect(topo, suite.BaselineLayouts(int(suite.Params.Cache.LineSize)), seed)
		if err != nil {
			return nil, err
		}
		analysis, err = core.NewAnalysis(suite.Prog, spec.ApplyProfile(pf), spec.ApplyTrace(trace), builtinOptions(suite, topo, spec, strict))
		if err != nil {
			return nil, err
		}
	}
	ranks, err := analysis.RankStructs()
	if err != nil {
		return nil, err
	}
	fmt.Print(core.RankReport(ranks))
	return analysis, nil
}

// loadProgram reads and parses a -program file and checks that its
// threads fit the collection machine.
func loadProgram(path string, topo *machine.Topology) (*irtext.File, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file, err := irtext.Parse(string(src))
	if err != nil {
		return nil, err
	}
	if err := driver.ValidateThreads(file, topo); err != nil {
		return nil, err
	}
	return file, nil
}

// runProgramFile drives the tool over a user-supplied irtext program.
func runProgramFile(path, structName, collectOn, mode string, seed int64, split bool, dotOut string, spec *faults.Spec, strict bool, measureRuns int) (*core.Analysis, error) {
	topo, err := machine.ByName(collectOn)
	if err != nil {
		return nil, err
	}
	file, err := loadProgram(path, topo)
	if err != nil {
		return nil, err
	}
	st := file.Prog.Struct(structName)
	if st == nil {
		var names []string
		for _, s := range file.Prog.Structs {
			names = append(names, s.Name)
		}
		return nil, fmt.Errorf("program %s has no struct %q (structs: %v)", file.Prog.Name, structName, names)
	}
	cfg := driver.Config{Topo: topo, Seed: seed, Inject: spec}
	fmt.Printf("collecting %s on %s...\n", file.Prog.Name, topo.Name)
	pf, trace, cycles, err := driver.CollectCached(file, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("collected %d samples over %d cycles\n", len(trace.Samples), cycles)
	analysis, err := core.NewAnalysis(file.Prog, pf, trace, driver.AnalysisOptions(file, cfg.LineSize(), cycles, spec, strict))
	if err != nil {
		return nil, err
	}
	orig, err := layout.Original(st, cfg.LineSize())
	if err != nil {
		return nil, err
	}
	if err := advise(analysis, pf, orig, "declaration order", mode, split, dotOut); err != nil {
		return nil, err
	}
	if measureRuns > 0 {
		base, err := driver.OriginalLayouts(file, cfg.LineSize())
		if err != nil {
			return nil, err
		}
		variants := make(map[string]*layout.Layout, len(base))
		for name, orig := range base {
			sugg, err := analysis.Suggest(name, orig)
			if err != nil {
				return nil, err
			}
			variants[name] = sugg.Auto
		}
		fmt.Printf("measuring per-struct automatic layouts on %s (%d runs each, -j %d)...\n",
			topo.Name, measureRuns, parallel.Limit())
		ev, err := driver.EvaluateCtx(context.Background(), file, cfg, base, variants, measureRuns, analysis.Quality)
		if err != nil {
			return nil, err
		}
		fmt.Print(ev.String())
	}
	return analysis, nil
}

// advise prints the advisory for the struct orig lays out, in either
// mode: its FLG as DOT (-dot), the automatic and the incremental layout
// (-mode), and the hot/cold splitting advisory (-split). orig is the
// layout the advice starts from, named by from ("baseline" or
// "declaration order"); pf is the profile the analysis started from.
func advise(analysis *core.Analysis, pf *profile.Profile, orig *layout.Layout, from, mode string, split bool, dotOut string) error {
	st := orig.Struct
	if dotOut != "" {
		if err := writeDOT(analysis, st.Name, dotOut); err != nil {
			return err
		}
	}
	if mode == "auto" || mode == "both" {
		sugg, err := analysis.Suggest(st.Name, orig)
		if err != nil {
			return err
		}
		fmt.Println(sugg.Report.String())
	}
	if mode == "best" || mode == "both" {
		best, clusters, err := analysis.Best(st.Name, orig)
		if err != nil {
			return err
		}
		fmt.Printf("==== incremental (\"best\") layout for struct %s ====\n", st.Name)
		fmt.Printf("constraint clusters: %d\n", len(clusters.Clusters))
		fmt.Print(best.Dump())
		fmt.Printf("\n-- movement from %s --\n%s", from, report.Diff(orig, best))
	}
	if split {
		adv, err := transform.Split(analysis.Prog, pf, st, orig.LineSize)
		if err != nil {
			return err
		}
		fmt.Println(adv)
	}
	return nil
}

// writeDOT renders a struct's FLG for Graphviz.
func writeDOT(analysis *core.Analysis, structName, path string) error {
	g, err := analysis.BuildFLG(structName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.WriteDOT(f, false); err != nil {
		return err
	}
	fmt.Printf("wrote FLG graph to %s (render: dot -Tsvg %s -o flg.svg)\n", path, path)
	return nil
}

func run(structLabel, collectOn, mode string, seed, scripts int64, split bool, profileIn, traceIn, dumpDir, dotOut string, spec *faults.Spec, strict bool) (*core.Analysis, error) {
	if !slices.Contains(workload.Labels(), structLabel) {
		return nil, fmt.Errorf("unknown struct %q (want A..E)", structLabel)
	}
	topo, err := machine.ByName(collectOn)
	if err != nil {
		return nil, err
	}
	suite, err := builtinSuite(scripts)
	if err != nil {
		return nil, err
	}
	baselines := suite.BaselineLayouts(int(suite.Params.Cache.LineSize))

	var pf *profile.Profile
	var trace *sampling.Trace
	if profileIn != "" {
		pf, err = readProfile(profileIn, suite)
		if err != nil {
			return nil, err
		}
		if traceIn != "" {
			trace, err = readTrace(traceIn)
			if err != nil {
				return nil, err
			}
		}
		fmt.Printf("loaded profile from %s\n", profileIn)
	} else {
		fmt.Printf("collecting on %s (%d CPUs, %d scripts/thread)...\n", topo.Name, topo.NumCPUs(), scripts)
		pf, trace, err = suite.Collect(topo, baselines, seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("collected %d samples\n", len(trace.Samples))
	}

	faulted := spec.ApplyProfile(pf)
	analysis, err := core.NewAnalysis(suite.Prog, faulted, spec.ApplyTrace(trace), builtinOptions(suite, topo, spec, strict))
	if err != nil {
		return nil, err
	}
	if analysis.Diag.Len() > 0 {
		fmt.Fprintf(os.Stderr, "layouttool: data quality:\n%s", analysis.Diag)
	}

	if dumpDir != "" {
		if err := dumpArtifacts(dumpDir, suite, analysis, pf, trace); err != nil {
			return nil, err
		}
		fmt.Printf("wrote analysis artifacts to %s\n", dumpDir)
	}
	if err := advise(analysis, faulted, baselines[structLabel], "baseline", mode, split, dotOut); err != nil {
		return nil, err
	}
	return analysis, nil
}

// defaultScripts is -collect-scripts' default: the SDET scripts per
// thread of a built-in collection, and of built-in lint's harness.
const defaultScripts = 12

// builtinSuite builds the SDET suite with the given scripts per thread.
func builtinSuite(scripts int64) (*workload.Suite, error) {
	params := workload.DefaultParams()
	params.ScriptsPerThread = scripts
	return workload.NewSuite(params)
}

// builtinOptions configures the analysis of the built-in workload the way
// the experiments pipeline does, alias oracle included, plus the static
// sharing pass over the suite's harness on topo and the fault spec's FMF
// damage.
func builtinOptions(suite *workload.Suite, topo *machine.Topology, spec *faults.Spec, strict bool) core.Options {
	sc := staticshare.FileConfig(suite.File(topo))
	opts := core.Options{
		LineSize:    int(suite.Params.Cache.LineSize),
		SliceCycles: workload.CollectSliceCycles,
		Strict:      strict,
		FMF:         spec.ApplyFMF(fieldmap.Build(suite.Prog), suite.Prog),
		FLG:         flg.Calibrated(),
		Static:      &sc,
	}
	opts.FLG.AliasOracle = workload.PrivateAliasOracle(suite.Prog)
	return opts
}

func readProfile(path string, suite *workload.Suite) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return profile.ReadJSON(f, suite.Prog)
}

func readTrace(path string) (*sampling.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sampling.ReadJSON(f)
}

func dumpArtifacts(dir string, suite *workload.Suite, analysis *core.Analysis, pf *profile.Profile, trace *sampling.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	if err := write("profile.json", func(f *os.File) error { return pf.WriteJSON(f) }); err != nil {
		return err
	}
	if trace != nil {
		if err := write("trace.json", func(f *os.File) error { return trace.WriteJSON(f) }); err != nil {
			return err
		}
	}
	if analysis.Concurrency != nil {
		if err := write("concmap.txt", func(f *os.File) error {
			return analysis.Concurrency.WriteText(f, suite.Prog)
		}); err != nil {
			return err
		}
	}
	return write("fmf.txt", func(f *os.File) error {
		return fieldmap.Build(suite.Prog).WriteText(f)
	})
}
