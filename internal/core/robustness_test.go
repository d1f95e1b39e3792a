package core

import (
	"math"
	"strings"
	"testing"

	"structlayout/internal/diag"
	"structlayout/internal/faults"
	"structlayout/internal/fieldmap"
	"structlayout/internal/ir"
	"structlayout/internal/sampling"
)

// TestNoTraceDegradesToLocalityOnly: the defined fallback when no
// concurrency collection happened at all.
func TestNoTraceDegradesToLocalityOnly(t *testing.T) {
	p, s := scenario(t)
	pf, _ := collect(t, p, s)
	a, err := NewAnalysis(p, pf, nil, Options{LineSize: 128, SliceCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Concurrency != nil {
		t.Fatal("no trace but a concurrency map appeared")
	}
	if a.Degraded() {
		t.Fatal("a deliberately trace-less analysis is by design, not degraded")
	}
	sugg, err := a.Suggest("S", origLayout(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if err := sugg.Auto.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyTraceFallsBackDegraded: a trace that sanitizes to nothing must
// produce the affinity-only fallback, flag the analysis degraded, and stamp
// the advisory report.
func TestEmptyTraceFallsBackDegraded(t *testing.T) {
	p, s := scenario(t)
	pf, _ := collect(t, p, s)
	// Every sample names an out-of-range CPU: all get sanitized away.
	junk := &sampling.Trace{
		IntervalCycles: 200,
		NumCPUs:        4,
		Samples: []sampling.Sample{
			{CPU: 99, Block: 0, ITC: 100},
			{CPU: -5, Block: 1, ITC: 200},
		},
	}
	a, err := NewAnalysis(p, pf, junk, Options{LineSize: 128, SliceCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Concurrency != nil {
		t.Fatal("junk trace still produced a concurrency map")
	}
	if !a.Degraded() {
		t.Fatalf("analysis not flagged degraded; log:\n%s", a.Diag)
	}
	sugg, err := a.Suggest("S", origLayout(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !sugg.Report.Degraded() {
		t.Fatal("report not flagged degraded")
	}
	text := sugg.Report.String()
	for _, want := range []string{"DEGRADED", "diagnostics (data quality)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

// TestStrictModeRejectsJunkTrace: the same input that gracefully degrades
// must be fatal under -strict.
func TestStrictModeRejectsJunkTrace(t *testing.T) {
	p, s := scenario(t)
	pf, _ := collect(t, p, s)
	junk := &sampling.Trace{
		IntervalCycles: 200,
		NumCPUs:        4,
		Samples:        []sampling.Sample{{CPU: 99, Block: 0, ITC: 100}},
	}
	if _, err := NewAnalysis(p, pf, junk, Options{LineSize: 128, SliceCycles: 2000, Strict: true}); err == nil {
		t.Fatal("strict mode accepted a trace that needed sanitization")
	}
	_ = s
}

// TestCorruptProfileSanitizedGracefully / rejected strictly.
func TestCorruptProfileHandling(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	pf.Blocks[0] = -17
	pf.Blocks[1] = math.NaN()

	a, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Profile.Blocks[0] != 0 || a.Profile.Blocks[1] != 0 {
		t.Fatalf("corrupt counts not clamped: %v %v", a.Profile.Blocks[0], a.Profile.Blocks[1])
	}
	if pf.Blocks[0] != -17 {
		t.Fatal("caller's profile was mutated")
	}
	found := false
	for _, d := range a.Diag.Entries() {
		if d.Code == "profile-corrupt" && d.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no profile-corrupt x2 diagnostic:\n%s", a.Diag)
	}

	if _, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000, Strict: true}); err == nil {
		t.Fatal("strict mode accepted a corrupt profile")
	}
}

// TestStaleFMFDegrades: an FMF missing most of its lines must push coverage
// diagnostics and (below 50%) flag degradation, while the pipeline still
// emits a valid layout.
func TestStaleFMFDegrades(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	full := fieldmap.Build(p)
	empty := full.Filter(p, func(ir.SourceLine) bool { return false })

	a, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000, FMF: empty})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Degraded() {
		t.Fatalf("empty FMF not flagged degraded:\n%s", a.Diag)
	}
	sugg, err := a.Suggest("S", origLayout(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if err := sugg.Auto.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range sugg.Graph.Pairs {
		if e.Loss != 0 {
			t.Fatalf("empty FMF cannot justify any CycleLoss: %+v", e)
		}
	}

	if _, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000, FMF: empty, Strict: true}); err == nil {
		t.Fatal("strict mode accepted an empty FMF")
	}
}

// TestProfileBlockCountMismatchIsAlwaysFatal: structural damage has no
// graceful fallback.
func TestProfileBlockCountMismatchIsAlwaysFatal(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	pf.Blocks = pf.Blocks[:len(pf.Blocks)-1]
	if _, err := NewAnalysis(p, pf, trace, Options{LineSize: 128, SliceCycles: 2000}); err == nil {
		t.Fatal("truncated profile accepted in graceful mode")
	}
	_ = s
}

// TestFaultedPipelineNeverPanics sweeps composed faults at full severity
// through the whole pipeline; whatever happens must be an error or a
// degraded-but-valid advisory, never a panic.
func TestFaultedPipelineNeverPanics(t *testing.T) {
	p, s := scenario(t)
	pf, trace := collect(t, p, s)
	full := fieldmap.Build(p)
	for _, sevs := range []string{"all=0.25", "all=0.5", "all=1"} {
		spec, err := faults.ParseSpec(sevs + ",seed=77")
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAnalysis(p, spec.ApplyProfile(pf), spec.ApplyTrace(trace), Options{
			LineSize:    128,
			SliceCycles: 2000,
			FMF:         spec.ApplyFMF(full, p),
		})
		if err != nil {
			continue // an error is an acceptable outcome; a panic is not
		}
		sugg, err := a.Suggest("S", origLayout(t, s))
		if err != nil {
			continue
		}
		if err := sugg.Auto.Validate(); err != nil {
			t.Fatalf("%s: faulted pipeline emitted an invalid layout: %v", sevs, err)
		}
		_ = sugg.Report.String() // rendering must not panic either
	}
}

// TestCleanInputNoDiagnostics: the graceful checks must not cry wolf.
func TestCleanInputNoDiagnostics(t *testing.T) {
	a, _ := analysis(t)
	if a.Degraded() {
		t.Fatalf("clean collection flagged degraded:\n%s", a.Diag)
	}
	for _, d := range a.Diag.Entries() {
		if d.Severity >= diag.Degraded {
			t.Fatalf("clean collection produced %v diagnostic: %+v", d.Severity, d)
		}
	}
}
