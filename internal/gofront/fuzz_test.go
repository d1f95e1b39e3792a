package gofront

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"structlayout/internal/irtext"
	"structlayout/internal/staticshare"
)

// recursionSrc recurses directly (walk calls itself) and mutually (walk
// and bounce call each other), and spawns both: the frontend must drop
// both back edges before Finalize, which rejects call cycles.
const recursionSrc = `package recur

type Node struct {
	left  int64
	right int64
}

var tree Node

func Start() {
	go walk(&tree, 8)
	go bounce(&tree, 8)
}

func walk(n *Node, depth int) {
	if depth == 0 {
		return
	}
	n.left++
	walk(n, depth-1)
	bounce(n, depth-1)
}

func bounce(n *Node, depth int) {
	n.right++
	walk(n, depth-1)
}
`

// TestRecursionLowers: a package with self and mutual recursion lowers
// to a finalized program once its back edges are dropped, with a note
// for each, and still reports the sharing both spawned walkers cause.
func TestRecursionLowers(t *testing.T) {
	rep := lintSrc(t, "recur", recursionSrc)
	if rep.Model.File.Prog.CallOrder() == nil {
		t.Fatal("lowered program was not finalized")
	}
	for _, want := range []string{"recursive call walk -> walk dropped", "recursive call walk -> bounce dropped"} {
		found := false
		for _, n := range rep.Notes {
			found = found || strings.HasPrefix(n, want)
		}
		if !found {
			t.Errorf("no note %q in %q", want, rep.Notes)
		}
	}
	if !hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("left and right, written by both walkers on one line, not flagged: %+v", rep.Findings)
	}
}

// FuzzGoFront lowers arbitrary one-file packages. Inputs that do not
// parse, import anything but sync and sync/atomic, or have type errors
// are skipped, so no go list child runs and nothing outside GOROOT is
// read. For the rest, extraction must succeed (its recover never
// fires), the program must be finalized, its irtext rendering must
// re-parse to the same canonical program, and two runs must render the
// same report. Seeds are the example and corpus packages and the
// recursion package above.
func FuzzGoFront(f *testing.F) {
	f.Add(recursionSrc)
	for _, root := range []string{"../../examples/gofront", "../../examples/corpus"} {
		paths, err := filepath.Glob(filepath.Join(root, "*", "*.go"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed sources under %s: %v", root, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.ImportsOnly)
		if err != nil {
			return
		}
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path != "sync" && path != "sync/atomic" {
				return
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		pkgs, loadErrs, err := Load([]string{dir}, Options{})
		if err != nil || len(loadErrs) > 0 || len(pkgs[0].TypeErrs) > 0 {
			return
		}
		m, err := Extract(pkgs[0], Options{})
		if err != nil {
			t.Fatalf("extraction failed: %v", err)
		}
		if m.File.Prog.CallOrder() == nil {
			t.Fatal("lowered program was not finalized")
		}
		text := irtext.Format(m.File)
		again, err := irtext.Parse(text)
		if err != nil {
			t.Fatalf("lowered program does not re-parse: %v\n%s", err, text)
		}
		if again.Prog.Dump() != m.File.Prog.Dump() || irtext.Format(again) != text {
			t.Fatalf("lowered program changed through irtext:\n%s", text)
		}
		render := func() string {
			reports, err := Run([]string{dir}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return RenderText(reports)
		}
		if a, b := render(), render(); a != b {
			t.Fatalf("two runs differ:\n--- first\n%s\n--- second\n%s", a, b)
		}
	})
}
