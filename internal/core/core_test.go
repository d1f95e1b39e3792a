package core

import (
	"strings"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/diag"
	"structlayout/internal/exec"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

func origLayout(t testing.TB, st *ir.StructType) *layout.Layout {
	t.Helper()
	l, err := layout.Original(st, 128)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// scenario builds a small program with a clear right answer: fields a0,a1
// walked together by every CPU; field w written by every CPU on the shared
// instance; cold fields. The tool must co-locate a0/a1 and separate w.
func scenario(t testing.TB) (*ir.Program, *ir.StructType) {
	t.Helper()
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
	main0 := p.NewProc("main0")
	main0.Call("reader")
	main0.Call("writer")
	main0.Done()
	return p.MustFinalize(), s
}

// collect runs the scenario on a 4-way machine gathering profile+samples.
func collect(t testing.TB, p *ir.Program, s *ir.StructType) (*profile.Profile, *sampling.Trace) {
	t.Helper()
	r, err := exec.NewRunner(p, exec.Config{
		Topo:  machine.Bus4(),
		Cache: coherence.DefaultItanium(),
		Seed:  11,
		Sampling: &sampling.Config{
			IntervalCycles: 200,
			DriftMaxCycles: 2,
			Seed:           5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 64); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 4; cpu++ {
		if err := r.AddThread(cpu, "main0", nil, 3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Profile, res.Trace
}

func analysis(t testing.TB) (*Analysis, *ir.StructType) {
	t.Helper()
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	a, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return a, s
}

// hasDiag reports whether the analysis logged the given code at exactly the
// given severity.
func hasDiag(a *Analysis, sev diag.Severity, code string) bool {
	for _, d := range a.Diag.Entries() {
		if d.Code == code && d.Severity == sev {
			return true
		}
	}
	return false
}

// TestTraceDropsAlwaysWarned is the regression test for the silent-drop
// bug: sanitization losses at or below the 25% degradation cutoff used to
// emit no diagnostic at all, so nothing downstream could tell a pristine
// trace from a mildly damaged one.
func TestTraceDropsAlwaysWarned(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)

	clean, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if hasDiag(clean, diag.Warning, "trace-drops") {
		t.Fatal("clean trace reported sanitization drops")
	}

	// Append exact duplicates of a few samples: sanitize drops them (a
	// small fraction, far below the 25% Degraded escalation).
	damaged := &sampling.Trace{
		Samples:        append(append([]sampling.Sample(nil), trace.Samples...), trace.Samples[:5]...),
		IntervalCycles: trace.IntervalCycles,
		NumCPUs:        trace.NumCPUs,
	}
	a, err := NewAnalysis(p, pf, damaged, Options{LineSize: 128, SliceCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(a, diag.Warning, "trace-drops") {
		t.Fatalf("small drop emitted no trace-drops warning; diagnostics:\n%s", a.Diag)
	}
	if a.Degraded() {
		t.Fatalf("sub-threshold drop escalated to degraded:\n%s", a.Diag)
	}
}

func TestSuggestSeparatesWriterColocatesWalkers(t *testing.T) {
	a, s := analysis(t)
	orig := origLayout(t, s)
	sugg, err := a.Suggest("S", orig)
	if err != nil {
		t.Fatal(err)
	}
	lay := sugg.Auto
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	if !lay.SameLine(s.FieldIndex("a0"), s.FieldIndex("a1")) {
		t.Fatalf("walk pair split:\n%s", lay.Dump())
	}
	wi := s.FieldIndex("w")
	if lay.SameLine(wi, s.FieldIndex("a0")) || lay.SameLine(wi, s.FieldIndex("a1")) {
		t.Fatalf("written field shares a line with the walk pair:\n%s", lay.Dump())
	}
	if sugg.Report == nil || sugg.Report.Graph == nil {
		t.Fatal("missing report or graph")
	}
	text := sugg.Report.String()
	for _, want := range []string{"layout advisory for struct S", "intra-cluster weight", "suggested layout"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestBestAppliesConstraintsToOriginal(t *testing.T) {
	a, s := analysis(t)
	orig := origLayout(t, s) // a0,a1,w,c0,c1: w shares the line
	best, res, err := a.Best("S", orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no constraint clusters")
	}
	wi := s.FieldIndex("w")
	if best.SameLine(wi, s.FieldIndex("a0")) {
		t.Fatalf("incremental layout did not separate w:\n%s", best.Dump())
	}
	// Cold fields keep their relative order (minimal change).
	if best.Offsets[s.FieldIndex("c0")] > best.Offsets[s.FieldIndex("c1")] {
		t.Fatal("incremental layout reordered unconstrained fields")
	}
}

func TestAnalysisWithoutTrace(t *testing.T) {
	p, s := scenario(t)
	pf, _ := collect(t, p, s)
	a, err := NewAnalysis(p, pf, nil, Options{LineSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if a.Concurrency != nil {
		t.Fatal("concurrency map appeared without a trace")
	}
	sugg, err := a.Suggest("S", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Locality-only mode: the walk pair still clusters.
	if !sugg.Auto.SameLine(s.FieldIndex("a0"), s.FieldIndex("a1")) {
		t.Fatal("locality-only layout split the walk pair")
	}
}

func TestUnknownStruct(t *testing.T) {
	a, _ := analysis(t)
	if _, err := a.Suggest("Nope", nil); err == nil {
		t.Fatal("unknown struct accepted by Suggest")
	}
	if _, _, err := a.Best("Nope", origLayout(t, a.Prog.Struct("S"))); err == nil {
		t.Fatal("unknown struct accepted by Best")
	}
	if _, err := a.BuildFLG("Nope"); err == nil {
		t.Fatal("unknown struct accepted by BuildFLG")
	}
}

func TestNewAnalysisValidation(t *testing.T) {
	p, s := scenario(t)
	pf, _ := collect(t, p, s)
	if _, err := NewAnalysis(nil, pf, nil, Options{}); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := NewAnalysis(p, nil, nil, Options{}); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fillDefaults()
	if o.LineSize != 128 || o.SliceCycles <= 0 {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestRankStructsThenSuggest ranks the program's structs and advises the
// top one: only the hot multi-line struct ranks, and its suggested layout
// separates the written field from the read ones.
func TestRankStructsThenSuggest(t *testing.T) {
	// Two structs: one hot with false sharing, one single-line (skipped),
	// one cold multi-line (skipped for zero hotness).
	p := ir.NewProgram("rank")
	hot := ir.NewStruct("hot", ir.I64("a0"), ir.I64("a1"), ir.I64("w"),
		ir.Arr("tail", 16, 8, 8)) // multi-line
	small := ir.NewStruct("small", ir.I64("x"), ir.I64("y"))
	cold := ir.NewStruct("colds", ir.Arr("blob", 40, 8, 8))
	p.AddStruct(hot)
	p.AddStruct(small)
	p.AddStruct(cold)
	rd := p.NewProc("reader")
	rd.Loop(300, func(b *ir.Builder) {
		b.Read(hot, "a0", ir.LoopVar())
		b.Read(hot, "a1", ir.LoopVar())
		b.Read(small, "x", ir.Shared(0))
		b.Compute(25)
	})
	rd.Done()
	wr := p.NewProc("writer")
	wr.Loop(300, func(b *ir.Builder) {
		b.Write(hot, "w", ir.Shared(0))
		b.Compute(40)
	})
	wr.Done()
	p.MustFinalize()

	r, err := exec.NewRunner(p, exec.Config{
		Topo:     machine.Bus4(),
		Cache:    coherence.DefaultItanium(),
		Seed:     31,
		Sampling: &sampling.Config{IntervalCycles: 150, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*ir.StructType{hot, small, cold} {
		if err := r.DefineArena(origLayout(t, st), 64); err != nil {
			t.Fatal(err)
		}
	}
	for cpu := 0; cpu < 4; cpu++ {
		proc := "reader"
		if cpu%2 == 1 {
			proc = "writer"
		}
		if err := r.AddThread(cpu, proc, nil, 3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalysis(p, res.Profile, res.Trace, Options{LineSize: 128, SliceCycles: 3000})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := a.RankStructs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 1 || ranks[0].Name != "hot" {
		t.Fatalf("ranks = %+v; want only the hot multi-line struct", ranks)
	}
	if ranks[0].NegativeMass <= 0 {
		t.Fatalf("hot struct should carry negative-edge mass: %+v", ranks[0])
	}
	if !strings.Contains(RankReport(ranks), "hot") {
		t.Fatal("rank report malformed")
	}
	sugg, err := a.Suggest(ranks[0].Name, origLayout(t, hot))
	if err != nil {
		t.Fatal(err)
	}
	if sugg.Auto.SameLine(hot.FieldIndex("w"), hot.FieldIndex("a0")) {
		t.Fatal("advised layout kept the hazard")
	}
}
