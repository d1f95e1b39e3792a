package gofront

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"structlayout/internal/irtext"
	"structlayout/internal/staticshare"
)

var update = flag.Bool("update", false, "rewrite the lowered-program goldens and the derived fuzz corpus entries")

// writePkg materializes a single-file package under a temp dir and
// returns its directory.
func writePkg(t *testing.T, name, src string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func lintSrc(t *testing.T, name, src string) *Report {
	t.Helper()
	dir := writePkg(t, name, src)
	pkgs, loadErrs, err := Load([]string{dir}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range loadErrs {
		t.Fatalf("load error: %v", e)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	rep := LintPackage(pkgs[0], Options{})
	if rep.Err != nil {
		t.Fatalf("lint failed: %v", rep.Err)
	}
	return rep
}

func hasCode(findings []staticshare.Finding, code string) bool {
	for _, f := range findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

// TestExamplesGolden pins the two golden packages: the false-sharing one
// must produce a static-false-sharing finding with a reordering
// suggestion, the clean one nothing.
func TestExamplesGolden(t *testing.T) {
	reports, err := Run([]string{"../../examples/gofront/..."}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2 (clean + falseshare)", len(reports))
	}
	var clean, bad *Report
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("package %s skipped: %v", r.Package, r.Err)
		}
		switch filepath.Base(r.Package) {
		case "clean":
			clean = r
		case "falseshare":
			bad = r
		}
	}
	if clean == nil || bad == nil {
		t.Fatal("expected reports for both example packages")
	}
	if len(clean.Findings) != 0 {
		t.Errorf("clean package has findings: %+v", clean.Findings)
	}
	if !hasCode(bad.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("falseshare package lacks %s: %+v", staticshare.CodeFalseSharing, bad.Findings)
	}
	if len(bad.Suggestions) == 0 {
		t.Error("falseshare package has no reordering suggestion")
	} else {
		diff := bad.Suggestions[0].Diff
		for _, want := range []string{"--- Metrics (declared)", "+++ Metrics (suggested", "[", "]byte"} {
			if !strings.Contains(diff, want) {
				t.Errorf("suggestion diff missing %q:\n%s", want, diff)
			}
		}
	}
}

// TestExtractStructsAndThreads pins the extraction basics on a small
// synthetic package.
func TestExtractStructsAndThreads(t *testing.T) {
	rep := lintSrc(t, "basics", `
package basics

type S struct {
	a int64
	b int32
	c byte
}

var g S

func Run() {
	go writerA()
	go writerB()
}

func writerA() { g.a = 1 }
func writerB() { g.b = 2 }
`)
	m := rep.Model
	if len(m.Structs) != 1 || m.Structs[0].Name != "S" {
		t.Fatalf("structs = %+v", m.Structs)
	}
	st := m.Structs[0].IR
	wantSizes := []int{8, 4, 1}
	wantAligns := []int{8, 4, 1}
	for i, f := range st.Fields {
		if f.Size != wantSizes[i] || f.Align != wantAligns[i] {
			t.Errorf("field %s: size %d align %d, want %d/%d", f.Name, f.Size, f.Align, wantSizes[i], wantAligns[i])
		}
	}
	// Run's two top-level `go` sites lower to structured spawn
	// statements, so only Run itself is declared; the workers become
	// spawned tasks discovered by the analysis.
	if got := len(m.File.Threads); got != 1 {
		t.Errorf("got %d declared threads, want 1 (workers are structured spawns)", got)
	}
	// Distinct-field writes to one shared instance on one line must be
	// flagged as certain false sharing.
	if !hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("no %s on shared-global writers: %+v", staticshare.CodeFalseSharing, rep.Findings)
	}
}

// TestLockRegions pins that Lock..Unlock call regions serialize the
// fields accessed inside them.
func TestLockRegions(t *testing.T) {
	rep := lintSrc(t, "locked", `
package locked

import "sync"

type Box struct {
	mu sync.Mutex
	_  [120]byte // keep the data off the mutex line
	n  int64
}

var b Box

func Run() {
	go add()
	go add()
}

func add() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}
`)
	// n is only written under b.mu: no certain unlocked write sharing on
	// it, so no false-sharing finding for the pair (mu is padded away).
	if hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("lock-serialized counter flagged as false sharing: %+v", rep.Findings)
	}
}

// TestCapturedLocalBecomesShared pins closure capture: a struct local
// captured by a spawned literal is a shared instance, not frame-private.
func TestCapturedLocalBecomesShared(t *testing.T) {
	rep := lintSrc(t, "capture", `
package capture

type C struct {
	x int64
	y int64
}

func Run() {
	var c C
	go func() { c.x = 1 }()
	go func() { c.y = 2 }()
	c.x = 3
}
`)
	if !hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("captured local writes not flagged: %+v", rep.Findings)
	}
}

// TestValueParamStaysPrivate pins the value-copy model: passing a struct
// by value gives the callee its own copy, so no sharing.
func TestValueParamStaysPrivate(t *testing.T) {
	rep := lintSrc(t, "valparam", `
package valparam

type V struct {
	x int64
	y int64
}

func Run() {
	var v V
	go use(v)
	go use(v)
}

func use(v V) { v.x = 1; v.y = 2 }
`)
	if hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("value-copied struct flagged as shared: %+v", rep.Findings)
	}
}

// TestPointerParamsBindInstances pins interprocedural instance passing:
// two goroutines handed the same *T conflict, two handed distinct *T
// instances do not.
func TestPointerParamsBindInstances(t *testing.T) {
	rep := lintSrc(t, "ptrparam", `
package ptrparam

type P struct {
	x int64
	y int64
}

var one, two P

func Conflict() {
	go write(&one)
	go write(&one)
}

func Disjoint() {
	go write(&two)
	go write(&one)
}

func write(p *P) { p.x = 1; p.y = 2 }
`)
	if !hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("same-instance pointer params not flagged: %+v", rep.Findings)
	}
}

// TestModelFormatRoundTrips pins that every lowered model formats to
// parseable irtext — the bridge the fuzz corpus and -lint-json rely on.
func TestModelFormatRoundTrips(t *testing.T) {
	reports, err := Run([]string{"../../examples/gofront/..."}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("package %s skipped: %v", r.Package, r.Err)
		}
		text := irtext.Format(r.Model.File)
		if _, perr := irtext.Parse(text); perr != nil {
			t.Errorf("package %s: lowered model does not re-parse: %v\n%s", r.Package, perr, text)
		}
	}
}

// TestLoweredGoldens pins the exact lowering of the example packages as
// committed irtext programs. The same files seed staticshare's FuzzLint
// and (as corpus entries regenerated with -update) irtext's FuzzParse,
// so the fuzzers always explore from realistic gofront output. Run
// `go test ./internal/gofront -run TestLoweredGoldens -update` after a
// deliberate lowering change.
func TestLoweredGoldens(t *testing.T) {
	reports, err := Run([]string{"../../examples/gofront/..."}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("package %s skipped: %v", r.Package, r.Err)
		}
		base := filepath.Base(r.Package)
		text := irtext.Format(r.Model.File)
		golden := filepath.Join("testdata", "lowered_"+base+".slp")
		if *update {
			if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			corpus := filepath.Join("..", "irtext", "testdata", "fuzz", "FuzzParse", "gofront_"+base)
			entry := fmt.Sprintf("go test fuzz v1\nstring(%s)\n", strconv.Quote(text))
			if err := os.WriteFile(corpus, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if string(want) != text {
			t.Errorf("lowering of %s drifted from %s (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s",
				r.Package, golden, text, want)
		}
	}
}

// TestRunDeterminism pins byte-identical output across runs and load
// orders — the satellite-3 contract for -go-lint.
func TestRunDeterminism(t *testing.T) {
	patterns := []string{"../../examples/gofront/falseshare", "../../examples/gofront/clean"}
	reversed := []string{patterns[1], patterns[0]}
	render := func(pats []string) string {
		t.Helper()
		reports, err := Run(pats, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return RenderText(reports)
	}
	a, b, c := render(patterns), render(patterns), render(reversed)
	if a != b {
		t.Errorf("two identical runs differ:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
	if a != c {
		t.Errorf("pattern order changes output:\n--- fwd\n%s\n--- rev\n%s", a, c)
	}
}

// TestLoadErrorsDegrade pins that an unparseable package inside a
// pattern set degrades to a skipped report, not a dead run.
func TestLoadErrorsDegrade(t *testing.T) {
	root := t.TempDir()
	good := filepath.Join(root, "good")
	bad := filepath.Join(root, "bad")
	for _, d := range []string{good, bad} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(good, "g.go"), []byte("package good\n\nfunc F() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "b.go"), []byte("package bad\n\nfunc {{{\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err := Run([]string{root + "/..."}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var skipped, ok int
	for _, r := range reports {
		if r.Err != nil {
			skipped++
		} else {
			ok++
		}
	}
	if skipped != 1 || ok != 1 {
		t.Fatalf("got %d skipped / %d ok reports, want 1/1", skipped, ok)
	}
	all := AllFindings(reports)
	if !hasCode(all, staticshare.CodeLintSkipped) {
		t.Errorf("no lint-skipped finding for the bad package: %+v", all)
	}
}
