package core

import (
	"os"
	"sync"
	"testing"

	"structlayout/internal/diag"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/staticshare"
	"structlayout/internal/workload"
)

// scenarioStatic is the static configuration matching the scenario
// harness: four threads entering main0, one 64-instance arena of S.
func scenarioStatic() *staticshare.Config {
	cfg := &staticshare.Config{Arenas: map[string]int{"S": 64}}
	for cpu := 0; cpu < 4; cpu++ {
		cfg.Threads = append(cfg.Threads, staticshare.Thread{CPU: cpu, Proc: "main0", Iters: 3})
	}
	return cfg
}

// TestStaticInvarianceOnCleanTrace is the satellite invariance guarantee:
// enabling the static analysis on a clean collection must not move the
// layouts or the quality score — the prior only blends in when the
// dynamic evidence is missing or degraded.
func TestStaticInvarianceOnCleanTrace(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	opts := Options{LineSize: 128, SliceCycles: 2000}
	without, err := NewAnalysis(p, pf, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Static = scenarioStatic()
	with, err := NewAnalysis(p, pf, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if with.Static == nil {
		t.Fatalf("static analysis did not run; diagnostics:\n%s", with.Diag)
	}
	if with.Quality.Score != without.Quality.Score {
		t.Fatalf("clean-trace quality moved: %v -> %v", without.Quality.Score, with.Quality.Score)
	}
	if !with.Quality.HasStaticCheck || with.Quality.StaticAgreement != 1 {
		t.Fatalf("clean trace should cross-check with full agreement, got %v (has=%v)",
			with.Quality.StaticAgreement, with.Quality.HasStaticCheck)
	}
	sw, err := without.Suggest("S", origLayout(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := with.Suggest("S", origLayout(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Auto.Dump() != ss.Auto.Dump() {
		t.Fatalf("clean-trace layout moved with the static prior enabled:\n--- without ---\n%s--- with ---\n%s",
			sw.Auto.Dump(), ss.Auto.Dump())
	}
	if hasDiag(with, diag.Info, "static-prior") {
		t.Fatal("prior was blended into a clean-trace analysis")
	}
}

// TestStaticPriorSeparatesWriteSharedOnEmptyTrace is the acceptance
// criterion: with no trace at all, the built-in workload's struct A still
// gets its statically-certain write-shared pairs onto distinct cache
// lines, because the static prior floors their CycleLoss above any gain.
func TestStaticPriorSeparatesWriteSharedOnEmptyTrace(t *testing.T) {
	params := workload.DefaultParams()
	params.ScriptsPerThread = 4
	suite, err := workload.NewSuite(params)
	if err != nil {
		t.Fatal(err)
	}
	topo := machine.Bus4()
	lineSize := int(params.Cache.LineSize)
	pf, _, err := suite.Collect(topo, suite.BaselineLayouts(lineSize), 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := staticshare.FileConfig(suite.File(topo))
	a, err := NewAnalysis(suite.Prog, pf, nil, Options{
		LineSize:    lineSize,
		SliceCycles: workload.CollectSliceCycles,
		Static:      &sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Concurrency != nil {
		t.Fatal("concurrency map appeared without a trace")
	}
	structName := suite.Struct("A").Type.Name
	sugg, err := a.Suggest(structName, suite.Struct("A").Baseline(lineSize))
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(a, diag.Info, "static-prior") {
		t.Fatalf("prior was not blended; diagnostics:\n%s", a.Diag)
	}
	if sugg.Report.Static == nil || sugg.Report.Static.Prior == nil {
		t.Fatal("report should carry the static summary with its prior result")
	}
	pairs := a.Static.Pairs[structName]
	if len(pairs) == 0 {
		t.Fatal("struct A should have classified pairs")
	}
	certain := 0
	for key, pi := range pairs {
		if pi.Class != staticshare.WriteShared || !pi.Certain {
			continue
		}
		certain++
		if sugg.Auto.SameLine(key[0], key[1]) {
			st := sugg.Report.Graph.Struct
			t.Errorf("certain write-shared pair %s/%s co-located on line %d",
				st.Fields[key[0]].Name, st.Fields[key[1]].Name, sugg.Auto.LineOf(key[0]))
		}
	}
	if certain == 0 {
		t.Fatal("struct A should have statically-certain write-shared pairs")
	}
}

// TestOneGraphPerStruct: an analysis builds each struct's FLG once, so
// Suggest, Best, BuildFLG and RankStructs share one graph and each
// build-time diagnostic counts once, also when the four run at once.
// examples/lint/forkjoin.slp without a trace has no CycleLoss, so the
// static prior applies; a 16-byte line spreads its 24-byte struct over two
// lines, so RankStructs ranks it.
func TestOneGraphPerStruct(t *testing.T) {
	src, err := os.ReadFile("../../examples/lint/forkjoin.slp")
	if err != nil {
		t.Fatal(err)
	}
	file, err := irtext.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := profile.StaticEstimate(file.Prog, []string{"coordinator"})
	if err != nil {
		t.Fatal(err)
	}
	sc := staticshare.FileConfig(file)
	a, err := NewAnalysis(file.Prog, pf, nil, Options{LineSize: 16, Static: &sc})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := layout.Original(file.Prog.Struct("batch"), 16)
	if err != nil {
		t.Fatal(err)
	}
	var (
		sugg  *Suggestion
		ranks []StructRank
		g     *flg.Graph
		errs  [4]error
		wg    sync.WaitGroup
	)
	for i, call := range []func() error{
		func() (err error) { sugg, err = a.Suggest("batch", orig); return err },
		func() (err error) { _, _, err = a.Best("batch", orig); return err },
		func() (err error) { ranks, err = a.RankStructs(); return err },
		func() (err error) { g, err = a.BuildFLG("batch"); return err },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(ranks) != 1 || ranks[0].Name != "batch" {
		t.Fatalf("ranks = %+v, want batch alone", ranks)
	}
	if g != sugg.Report.Graph {
		t.Fatal("BuildFLG and Suggest returned different graphs")
	}
	if sugg.Report.Static == nil || sugg.Report.Static.Prior == nil {
		t.Fatal("the static prior did not apply")
	}
	counts := map[string]int{}
	for _, d := range a.Diag.Entries() {
		counts[d.Source+"/"+d.Code] = d.Count
	}
	for _, code := range []string{"flg/no-cycleloss", "core/static-prior"} {
		if counts[code] != 1 {
			t.Errorf("%s counted %d times, want 1; diagnostics:\n%s", code, counts[code], a.Diag)
		}
	}
}

// TestStaticAnalysisFailureDegrades: an unusable static configuration is
// a diagnosed fallback in graceful mode and fatal in strict mode, the
// same contract as the lock and trace fallbacks.
func TestStaticAnalysisFailureDegrades(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	bad := scenarioStatic()
	bad.Threads[0].Proc = "no_such_proc"
	a, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000, Static: bad})
	if err != nil {
		t.Fatal(err)
	}
	if a.Static != nil {
		t.Fatal("failed static analysis should leave Static nil")
	}
	if !hasDiag(a, diag.Degraded, "static-analysis-failed") {
		t.Fatalf("missing static-analysis-failed diagnostic:\n%s", a.Diag)
	}
	if _, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000, Static: bad, Strict: true}); err == nil {
		t.Fatal("strict mode should make a failed static analysis fatal")
	}
	_ = s
}

// TestAnalysisLint: the linter surfaces the scenario's seeded hazard (w
// written by every thread on the shared instance, co-located with the
// walk fields in declaration order).
func TestAnalysisLint(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	a, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000, Static: scenarioStatic()})
	if err != nil {
		t.Fatal(err)
	}
	findings := a.Lint(map[string]*layout.Layout{"S": origLayout(t, s)})
	found := false
	for _, f := range findings {
		if f.Code == staticshare.CodeFalseSharing && f.Struct == "S" {
			found = true
		}
	}
	if !found {
		t.Fatalf("lint should flag the co-located write-shared field w; got %+v", findings)
	}
}

// TestStaticInvarianceOnSyncProgram is the spawn-aware variant of the
// clean-trace invariance pin: a program carrying structured spawn/join
// statements runs the happens-before layer (tasks discovered, ordering
// claimed), yet on a clean trace the layouts and the quality score must
// stay byte-identical to the analysis without the static pass — the
// refinement may only remove claimed concurrency, never perturb a
// healthy dynamic result.
func TestStaticInvarianceOnSyncProgram(t *testing.T) {
	p := ir.NewProgram("toolcase")
	s := ir.NewStruct("S",
		ir.I64("a0"), ir.I64("a1"), ir.I64("w"),
		ir.I64("c0"), ir.I64("c1"),
	)
	p.AddStruct(s)
	reader := p.NewProc("reader")
	reader.Loop(400, func(b *ir.Builder) {
		b.Read(s, "a0", ir.LoopVar())
		b.Read(s, "a1", ir.LoopVar())
		b.Compute(30)
	})
	reader.Done()
	writer := p.NewProc("writer")
	writer.Loop(400, func(b *ir.Builder) {
		b.Write(s, "w", ir.Shared(0))
		b.Compute(40)
	})
	writer.Done()
	helper := p.NewProc("helper")
	helper.Write(s, "w", ir.Shared(0))
	helper.Done()
	main0 := p.NewProc("main0")
	main0.Call("reader")
	main0.Spawn("h", 5, "helper")
	main0.Call("writer")
	main0.Join("h")
	main0.Done()
	prog := p.MustFinalize()

	pf, trace := collect(t, prog, s)
	opts := Options{LineSize: 128, SliceCycles: 2000}
	without, err := NewAnalysis(prog, pf, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Static = scenarioStatic()
	with, err := NewAnalysis(prog, pf, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if with.Static == nil {
		t.Fatalf("static analysis did not run; diagnostics:\n%s", with.Diag)
	}
	// Each of the four root threads spawns its own helper task.
	if got := len(with.Static.Threads); got != 8 {
		t.Fatalf("got %d static tasks, want 8 (4 roots + 4 spawned)", got)
	}
	if with.Static.HBDegraded() {
		t.Fatal("joined spawn must not degrade the happens-before layer")
	}
	if with.Quality.Score != without.Quality.Score {
		t.Fatalf("clean-trace quality moved: %v -> %v", without.Quality.Score, with.Quality.Score)
	}
	if !with.Quality.HasStaticCheck || with.Quality.StaticAgreement != 1 {
		t.Fatalf("clean trace should cross-check with full agreement, got %v (has=%v)",
			with.Quality.StaticAgreement, with.Quality.HasStaticCheck)
	}
	sw, err := without.Suggest("S", origLayout(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := with.Suggest("S", origLayout(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Auto.Dump() != ss.Auto.Dump() {
		t.Fatalf("clean-trace layout moved with the spawn-aware static prior enabled:\n--- without ---\n%s--- with ---\n%s",
			sw.Auto.Dump(), ss.Auto.Dump())
	}
	if hasDiag(with, diag.Info, "static-prior") {
		t.Fatal("prior was blended into a clean-trace analysis")
	}
}
