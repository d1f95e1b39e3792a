package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structlayout/internal/faults"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/quality"
	"structlayout/internal/staticshare"
	"structlayout/internal/transform"
)

// none is the identity fault spec the CLI parses from an empty -inject.
func none(t *testing.T) *faults.Spec {
	t.Helper()
	spec, err := faults.ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunBuiltinStruct(t *testing.T) {
	// Short collection, both modes, with dumps.
	dir := t.TempDir()
	analysis, err := run("B", "bus4", "both", 7, 2, true, "", "", dir, filepath.Join(dir, "flg.dot"), none(t), false)
	if err != nil {
		t.Fatal(err)
	}
	if analysis == nil || analysis.Quality == nil {
		t.Fatal("run returned no analysis or no quality assessment")
	}
	for _, f := range []string{"profile.json", "trace.json", "concmap.txt", "fmf.txt", "flg.dot"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("dump artifact %s missing: %v", f, err)
		}
	}
	// Replay from the dumped profile+trace.
	if _, err := run("B", "bus4", "auto", 7, 2, false,
		filepath.Join(dir, "profile.json"), filepath.Join(dir, "trace.json"), "", "", none(t), false); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestRunProgramFileMode(t *testing.T) {
	src := `
program t
struct s { a i64 b i64 w i64 }
proc reader { loop 200 { read s.a loopvar  read s.b loopvar  compute 20 } }
proc writer { loop 200 { write s.w shared 0  compute 30 } }
proc m { call reader call writer }
arena s 128
thread 0 m iters 3
thread 1 m iters 3
thread 2 m iters 3
thread 3 m iters 3
`
	path := filepath.Join(t.TempDir(), "t.slp")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// -measure 2 exercises the multi-struct measurement loop end to end.
	if _, err := runProgramFile(path, "s", "bus4", "both", 3, true, "", none(t), false, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := runProgramFile(path, "nope", "bus4", "auto", 3, false, "", none(t), false, 0); err == nil {
		t.Fatal("unknown struct accepted")
	}
	if _, err := runProgramFile(path, "s", "nowhere", "auto", 3, false, "", none(t), false, 0); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

// TestDOTLeavesReportAlone: -dot writes the FLG the advisory is built
// from, so the printed report, diagnostics and counts included, is the
// one printed without it, apart from the line naming the DOT file.
// examples/lint/forkjoin.slp has no CycleLoss and takes the static prior,
// two build-time diagnostics.
func TestDOTLeavesReportAlone(t *testing.T) {
	const slp = "../../examples/lint/forkjoin.slp"
	dot := filepath.Join(t.TempDir(), "flg.dot")
	var outs [2]string
	for i, dotOut := range []string{"", dot} {
		outs[i] = captureStdout(t, func() {
			if _, err := runProgramFile(slp, "batch", "bus4", "both", 1, false, dotOut, none(t), false, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	wrote := "wrote FLG graph to " + dot + " (render: dot -Tsvg " + dot + " -o flg.svg)\n"
	if !strings.Contains(outs[1], wrote) {
		t.Fatalf("-dot output lacks %q:\n%s", wrote, outs[1])
	}
	if got := strings.Replace(outs[1], wrote, "", 1); got != outs[0] {
		t.Fatalf("-dot changed the report:\n--- without ---\n%s\n--- with ---\n%s", outs[0], got)
	}
	if !strings.Contains(outs[0], "core/static-prior") {
		t.Fatalf("the report lists no static prior:\n%s", outs[0])
	}
}

// TestRunProgramFileInject drives the DSL path with a composed fault spec:
// -inject must now be honored through driver.Collect rather than silently
// ignored outside the built-in workload.
func TestRunProgramFileInject(t *testing.T) {
	src := `
program t2
struct s { a i64 b i64 }
proc m { loop 150 { read s.a loopvar  write s.b loopvar  compute 25 } }
arena s 64
thread 0 m iters 4
thread 1 m iters 4
`
	path := filepath.Join(t.TempDir(), "t2.slp")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := faults.ParseSpec("all=0.6,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runProgramFile(path, "s", "bus4", "auto", 3, false, "", spec, false, 0); err != nil {
		t.Fatalf("graceful mode errored on injected faults: %v", err)
	}
}

// TestLintTreeSkipsCorruptFiles pins the -lint-dir degradation contract:
// a corrupt .slp alongside good ones yields the good files' aggregated
// findings plus a lint-skipped diagnostic, not an aborted run.
func TestLintTreeSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	clean, err := os.ReadFile("../../examples/lint/clean.slp")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := os.ReadFile("../../examples/lint/falseshare.slp")
	if err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "clean.slp"), clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "falseshare.slp"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.slp"), []byte("program {{{ not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintTree(dir)
	if err != nil {
		t.Fatalf("one corrupt file aborted the tree lint: %v", err)
	}
	var skipped, falseSharing int
	for _, f := range findings {
		switch f.Code {
		case staticshare.CodeLintSkipped:
			skipped++
			if !strings.Contains(f.Message, "corrupt.slp") {
				t.Errorf("lint-skipped diagnostic does not name the corrupt file: %q", f.Message)
			}
		case staticshare.CodeFalseSharing:
			falseSharing++
		}
	}
	if skipped != 1 {
		t.Errorf("got %d lint-skipped findings, want 1", skipped)
	}
	if falseSharing == 0 {
		t.Error("good files' findings were lost: no static-false-sharing aggregated")
	}

	// A tree where nothing lints is still an error.
	empty := t.TempDir()
	if _, err := lintTree(empty); err == nil {
		t.Error("empty tree should error")
	}
	allBad := t.TempDir()
	if err := os.WriteFile(filepath.Join(allBad, "x.slp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lintTree(allBad); err == nil {
		t.Error("tree with only corrupt files should error")
	}
}

// TestRunGoLint pins the -go-lint exit-code contract on the golden
// example packages: clean exits 0, false sharing exits 3, and a bad
// pattern exits 1.
func TestRunGoLint(t *testing.T) {
	if got := runGoLint("../../examples/gofront/clean", "", ""); got != 0 {
		t.Errorf("clean package: exit %d, want 0", got)
	}
	jsonOut := filepath.Join(t.TempDir(), "findings.json")
	if got := runGoLint("../../examples/gofront/falseshare", jsonOut, ""); got != 3 {
		t.Errorf("falseshare package: exit %d, want 3", got)
	}
	raw, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), staticshare.CodeFalseSharing) {
		t.Errorf("-lint-json output lacks %s: %s", staticshare.CodeFalseSharing, raw)
	}
	if got := runGoLint("../../examples/gofront/no-such-dir", "", ""); got != 1 {
		t.Errorf("missing dir: exit %d, want 1", got)
	}
}

// TestRunGoLintZeroMatch pins the satellite contract: a pattern set that
// matches no packages at all must exit 1 (after printing the skipped
// diagnostics), while a dead pattern mixed with a live package degrades
// to the skipped finding and exits 3.
func TestRunGoLintZeroMatch(t *testing.T) {
	if got := runGoLint("../../examples/gofront/ghost/...", "", ""); got != 1 {
		t.Errorf("zero-match recursive pattern: exit %d, want 1", got)
	}
	if got := runGoLint("../../examples/gofront/ghost", "", ""); got != 1 {
		t.Errorf("zero-match plain pattern: exit %d, want 1", got)
	}
	got := runGoLint("../../examples/gofront/ghost/...,../../examples/gofront/clean", "", "")
	if got != 3 {
		t.Errorf("mixed dead+live patterns: exit %d, want 3 (skipped finding)", got)
	}
}

// TestLintTreeParallelDeterminism pins the -lint-dir fan-out: the ranked
// findings must be byte-identical at any worker count.
func TestLintTreeParallelDeterminism(t *testing.T) {
	saved := parallel.Limit()
	defer parallel.SetLimit(saved)

	var ref string
	for _, j := range []int{1, 2, 8} {
		parallel.SetLimit(j)
		findings, err := lintTree("../../examples")
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		staticshare.Rank(findings)
		raw, err := staticshare.MarshalFindings(findings)
		if err != nil {
			t.Fatal(err)
		}
		if ref == "" {
			ref = string(raw)
		} else if string(raw) != ref {
			t.Fatalf("-j %d findings differ from -j 1", j)
		}
	}
}

func TestRunRankMode(t *testing.T) {
	if _, err := runRank("", "bus4", 3, 2, none(t), false); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := run("Z", "bus4", "auto", 1, 1, false, "", "", "", "", none(t), false); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := run("A", "vax", "auto", 1, 1, false, "", "", "", "", none(t), false); err == nil {
		t.Fatal("unknown machine accepted")
	}
	// An unknown -mode is a usage error, caught before collection.
	fs := flag.NewFlagSet("layouttool", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse([]string{"-struct", "A", "-collect-machine", "bus4", "-mode", "sideways"}); err != nil {
		t.Fatal(err)
	}
	if len(usageErrors(fs, o)) == 0 {
		t.Fatal("unknown mode accepted")
	}
}

// TestFlagsUnreadByMode: a flag the selected mode never reads is a usage
// error naming the flag, while every documented and CI invocation passes.
func TestFlagsUnreadByMode(t *testing.T) {
	const slp = "examples/dslprogram/webserver.slp"
	cases := []struct {
		args   string
		mode   string
		unread string
	}{
		// Flags the mode silently ignored before.
		{"-program " + slp + " -struct conn -dump out", "program", "dump"},
		{"-program " + slp + " -profile /nonexistent.json", "program", "profile"},
		{"-program " + slp + " -lint-json out.json", "program", "lint-json"},
		{"-program " + slp + " -collect-scripts 2", "program", "collect-scripts"},
		{"-struct B -measure 2", "built-in", "measure"},
		{"-rank -mode auto -measure 5 -split -dot g.dot -dump out", "rank", "dot dump measure mode split"},
		{"-rank -program " + slp + " -collect-machine bus4 -collect-scripts 50", "program rank", "collect-scripts"},
		{"-rank -program " + slp + " -collect-scripts 1 -profile p.json", "program rank", "collect-scripts profile"},
		{"-lint -program " + slp + " -quality", "program lint", "quality"},
		{"-lint -seed 5", "lint", "seed"},
		{"-lint -collect-scripts 50", "lint", "collect-scripts"},
		{"-lint -collect-machine bus4 -collect-scripts 2", "lint", "collect-scripts"},
		{"-lint -program " + slp + " -collect-machine superdome128", "program lint", "collect-machine"},
		{"-lint -program " + slp + " -collect-scripts 1", "program lint", "collect-scripts"},
		{"-lint-dir examples/lint -collect-machine bus4 -collect-scripts 2", "program lint", "collect-machine collect-scripts"},
		{"-go-lint ./x -program " + slp, "go-lint", "program"},
		{"-cache-gc -cache-dir c -lint", "cache-gc", "lint"},
		// Invocations the README, docs and CI use.
		{"-struct B -collect-machine bus4 -collect-scripts 2 -mode auto", "built-in", ""},
		{"-struct A -dump out -dot g.dot -split", "built-in", ""},
		{"-struct B -inject all=0.25,seed=20070311 -quality -strict", "built-in", ""},
		{"-program " + slp + " -struct conn -collect-machine bus4 -measure 2 -cache-dir c -j 2", "program", ""},
		{"-program " + slp + " -struct conn -measure 2 -split", "program", ""},
		{"-rank -program " + slp, "program rank", ""},
		{"-rank -program " + slp + " -collect-machine bus4 -seed 3 -inject loss=0.5 -strict -quality", "program rank", ""},
		{"-rank -collect-machine bus4 -collect-scripts 2", "rank", ""},
		{"-lint -program " + slp + " -lint-json out.json", "program lint", ""},
		{"-lint-dir examples/lint -lint-json -", "program lint", ""},
		{"-lint -collect-machine bus4 -lint-json -", "lint", ""},
		{"-go-lint examples/corpus/... -cache-dir c -lint-json out.json", "go-lint", ""},
		{"-cache-gc -cache-dir c -cache-gc-age 1h -cache-gc-bytes 100", "cache-gc", ""},
	}
	// Every flag is read by some mode, or no invocation could set it.
	read := map[string]bool{"j": true, "cache-dir": true}
	for _, names := range modeFlags {
		for _, name := range strings.Fields(names) {
			read[name] = true
		}
	}
	all := flag.NewFlagSet("layouttool", flag.ContinueOnError)
	defineFlags(all)
	all.VisitAll(func(f *flag.Flag) {
		if !read[f.Name] {
			t.Errorf("-%s is read by no mode", f.Name)
		}
	})
	for _, c := range cases {
		fs := flag.NewFlagSet("layouttool", flag.ContinueOnError)
		o := defineFlags(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		if got := o.mode(); got != c.mode {
			t.Errorf("%s: mode %s, want %s", c.args, got, c.mode)
			continue
		}
		if got := strings.Join(unreadFlags(fs, c.mode), " "); got != c.unread {
			t.Errorf("%s: unread flags %q, want %q", c.args, got, c.unread)
		}
	}
	// -mode is checked, next to the unread flags, in the modes that read
	// it; a mode that does not read it reports it as unread instead.
	const badMode = `unknown -mode "bogus" (want auto, best or both)`
	for _, c := range []struct{ args, want string }{
		{"-program " + slp + " -struct conn -collect-machine bus4 -mode bogus", badMode},
		{"-struct B -collect-machine bus4 -mode bogus", badMode},
		{"-struct B -mode bogus -measure 2", "-measure is not read in built-in mode; " + badMode},
		{"-rank -mode bogus", "-mode is not read in rank mode"},
		{"-lint -mode bogus", "-mode is not read in lint mode"},
		{"-program " + slp + " -struct conn -mode best", ""},
		{"-struct B -mode auto", ""},
		{"-struct B", ""},
	} {
		fs := flag.NewFlagSet("layouttool", flag.ContinueOnError)
		o := defineFlags(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		if got := strings.Join(usageErrors(fs, o), "; "); got != c.want {
			t.Errorf("%s: usage errors %q, want %q", c.args, got, c.want)
		}
	}
	// The removed simulation-mode switch and analysis constants are
	// unknown flags.
	for _, args := range [][]string{{"-sim", "exact"}, {"-k1", "4"}, {"-k2", "1"}, {"-topk", "20"}, {"-no-alias-analysis"}} {
		fs := flag.NewFlagSet("layouttool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs)
		if err := fs.Parse(append([]string{"-struct", "B"}, args...)); err == nil {
			t.Errorf("%s parsed as a flag", args[0])
		}
	}
}

// TestRunInjectedFaultsDegradeGracefully drives the CLI path with a
// full-severity composed fault spec: the tool must produce an advisory (or
// a clean error under -strict), never panic.
func TestRunInjectedFaultsDegradeGracefully(t *testing.T) {
	spec, err := faults.ParseSpec("all=0.6,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := run("B", "bus4", "auto", 7, 2, false, "", "", "", "", spec, false)
	if err != nil {
		t.Fatalf("graceful mode errored on injected faults: %v", err)
	}
	if got := qualityGate(analysis); got == 0 {
		t.Fatalf("severity-0.6 faults passed the quality gate (exit %d, %s)", got, analysis.Quality)
	}
	if _, err := run("B", "bus4", "auto", 7, 2, false, "", "", "", "", spec, true); err == nil {
		t.Fatal("strict mode accepted heavily faulted input")
	}
}

// TestQualityGateVerdicts pins the exit-code mapping the CI robustness
// smoke job relies on.
func TestQualityGateVerdicts(t *testing.T) {
	cases := []struct {
		score float64
		want  int
	}{
		{1.0, 0},
		{quality.SuspectBelow, 0},
		{quality.SuspectBelow - 0.01, 3},
		{quality.DegradedBelow - 0.01, 4},
	}
	a, err := run("B", "bus4", "auto", 7, 2, false, "", "", "", "", none(t), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		a.Quality.Score = c.score
		if got := qualityGate(a); got != c.want {
			t.Fatalf("score %.2f: exit %d, want %d", c.score, got, c.want)
		}
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-out
}

// TestBuiltinSplitReadsFaultedProfile: built-in -split advises from the
// profile the analysis starts from, so a profcorrupt spec reaches it, as
// it does in program mode.
func TestBuiltinSplitReadsFaultedProfile(t *testing.T) {
	spec, err := faults.ParseSpec("profcorrupt=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	const seed, scripts = 20070311, 2
	var runErr error
	out := captureStdout(t, func() {
		_, runErr = run("A", "bus4", "auto", seed, scripts, true, "", "", "", "", spec, false)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	suite, err := builtinSuite(scripts)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := suite.Collect(machine.Bus4(), suite.BaselineLayouts(128), seed)
	if err != nil {
		t.Fatal(err)
	}
	st := suite.Struct("A").Type
	faulted, err := transform.Split(suite.Prog, spec.ApplyProfile(pf), st, 128)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := transform.Split(suite.Prog, pf, st, 128)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.String() == clean.String() {
		t.Fatal("profcorrupt left the split advisory unchanged; the test shows nothing")
	}
	if !strings.Contains(out, faulted.String()) {
		t.Fatalf("-split did not print the advisory of the faulted profile:\n%s", out)
	}
	if adv := faulted.String(); !strings.Contains(adv, "hot: 22 fields") || !strings.Contains(adv, " pt_stat2 ") {
		t.Errorf("faulted split advisory moved: want 22 hot fields and pt_stat2 dead:\n%s", faulted)
	}
}

// TestEditedMeasurementEntryRecomputed: a warm -cache-dir run of the DSL
// example prints what the cold run printed even after the first digit of
// the mean in each measurement entry on disk was changed. The edited
// entries fail verification, so the run recomputes them instead of
// replaying the edit.
func TestEditedMeasurementEntryRecomputed(t *testing.T) {
	cache, dir := memo.Shared(), t.TempDir()
	if err := cache.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	cache.Clear()
	t.Cleanup(func() {
		cache.SetDir("")
		cache.Clear()
	})
	slp := filepath.Join("..", "..", "examples", "dslprogram", "webserver.slp")
	advise := func() string {
		return captureStdout(t, func() {
			if _, err := runProgramFile(slp, "conn", "bus4", "auto", 20070311, false, "", none(t), false, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	cold := advise()
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	edited := 0
	for _, p := range entries {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(b, []byte(`"mean":`))
		if i < 0 {
			continue
		}
		d := &b[i+len(`"mean":`)]
		*d = '1' + (*d-'0')%9 // another nonzero digit
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		edited++
	}
	if edited != 2 {
		t.Fatalf("edited %d measurement entries of %d, want the baseline's and conn's", edited, len(entries))
	}
	cache.Clear()
	before := cache.Stats()
	if warm := advise(); warm != cold {
		t.Fatalf("warm run replayed the edited entries:\n--- warm ---\n%s\n--- cold ---\n%s", warm, cold)
	}
	if st := cache.Stats().Sub(before); st.Errors != 2 || st.DiskHits != 1 {
		t.Fatalf("warm run: %+v, want 2 corrupt entries recomputed and the collection replayed", st)
	}
}
