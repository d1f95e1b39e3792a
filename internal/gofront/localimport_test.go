package gofront

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"structlayout/internal/staticshare"
)

// localmodDir is the module-local import fixture, as an absolute path so
// that reports name packages alike from any working directory.
func localmodDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "localmod"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// chdir moves the process into dir until the test ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// isolatePool empties the bundle pool until the test ends, so the test's
// loads share one bundle that no other test touched.
func isolatePool(t *testing.T) {
	t.Helper()
	var held []*typeBundle
	for len(bundleFree) > 0 {
		held = append(held, <-bundleFree)
	}
	t.Cleanup(func() {
		for len(bundleFree) > 0 {
			<-bundleFree
		}
		for _, b := range held {
			bundleFree <- b
		}
	})
}

// pooledFiles counts the files in the FileSet of the one pooled bundle
// an isolatePool test holds.
func pooledFiles() int {
	b := <-bundleFree
	defer func() { bundleFree <- b }()
	n := 0
	b.fset.Iterate(func(*token.File) bool { n++; return true })
	return n
}

// writeFiles writes name→content files under root.
func writeFiles(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// referenceRender lints dirs the way gofront did before it resolved
// module-local imports itself: one source importer, with the working
// directory inside the module so that its `go list` children resolve
// module-local paths. It returns the rendered text and findings JSON.
func referenceRender(t *testing.T, modRoot string, dirs []string) (string, string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(modRoot); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var reports []*Report
	for _, dir := range dirs {
		names, srcs, err := readGoFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := checkFiles(fset, imp, dir, names, srcs)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, LintPackage(pkg, Options{}))
	}
	js, err := staticshare.MarshalFindings(AllFindings(reports))
	if err != nil {
		t.Fatal(err)
	}
	return RenderText(reports), string(js)
}

func sameRender(t *testing.T, what, gotText, gotJSON, wantText, wantJSON string) {
	t.Helper()
	if gotText != wantText {
		t.Errorf("%s: text differs from the source importer's:\n--- got\n%s\n--- want\n%s", what, gotText, wantText)
	}
	if gotJSON != wantJSON {
		t.Errorf("%s: findings JSON differs from the source importer's:\n--- got\n%s\n--- want\n%s", what, gotJSON, wantJSON)
	}
}

// TestLocalImportsMatchSourceImporter is the differential test of the
// in-process resolver over every localmod package: a chain, a diamond, a
// build-ignored redeclaration, a nested module and a missing package
// must lint exactly as through the source importer, on a fresh bundle
// and again on the reused one.
func TestLocalImportsMatchSourceImporter(t *testing.T) {
	root := localmodDir(t)
	dirs, _, err := expandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 7 {
		t.Fatalf("localmod has %d packages, want 7: %v", len(dirs), dirs)
	}
	wantText, wantJSON := referenceRender(t, root, dirs)
	chdir(t, root)
	isolatePool(t)
	for _, pass := range []string{"fresh bundle", "reused bundle"} {
		gotText, gotJSON := renderAll(t, []string{root + "/..."}, Options{})
		sameRender(t, pass, gotText, gotJSON, wantText, wantJSON)
	}
}

// TestLoadOutsideModuleCwd pins that module-local imports resolve next
// to the importing package, not in the working directory: loaded from
// the test's own directory, outside localmod, every importing package
// type-checks cleanly and lints as the source importer does from inside
// the module.
func TestLoadOutsideModuleCwd(t *testing.T) {
	root := localmodDir(t)
	var dirs []string
	for _, name := range []string{"a", "b", "d", "e"} {
		dirs = append(dirs, filepath.Join(root, name))
	}
	pkgs, loadErrs, err := Load(dirs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range loadErrs {
		t.Fatalf("load error: %v", e)
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrs) > 0 {
			t.Errorf("%s: %d type errors, first: %v", pkg.Dir, len(pkg.TypeErrs), pkg.TypeErrs[0])
		}
	}
	wantText, wantJSON := referenceRender(t, root, dirs)
	gotText, gotJSON := renderAll(t, dirs, Options{})
	sameRender(t, "outside the module", gotText, gotJSON, wantText, wantJSON)
}

// TestPooledImporterSeesEdits pins that a pooled bundle never serves a
// stale module-local package: an edit to a struct that b reaches through
// w shows on b's next lint, the replaced files leave the FileSet, and a
// second module with the same module path gets its own packages.
func TestPooledImporterSeesEdits(t *testing.T) {
	const (
		w = "package w\n\nimport \"m/a\"\n\ntype W struct{ T a.T }\n"
		b = "package b\n\nimport \"m/w\"\n\ntype S struct {\n\thot  int64\n\tt    w.W\n\tcold int64\n}\n\nvar s S\n\nfunc Run() {\n\tgo func() { s.hot++ }()\n\tgo func() { s.cold++ }()\n}\n"
	)
	m1, m2 := t.TempDir(), t.TempDir()
	writeFiles(t, m1, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"a/a.go": "package a\n\ntype T struct{ X, Y int64 }\n",
		"w/w.go": w,
		"b/b.go": b,
	})
	writeFiles(t, m2, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"a/a.go": "package a\n\ntype T struct{ X [40]byte }\n",
		"w/w.go": w,
		"b/b.go": b,
	})
	// Inside m1, as the source importer needs: the reused bundle alone is
	// under test.
	chdir(t, m1)
	isolatePool(t)
	lint := func(mod string) string {
		t.Helper()
		dirs := []string{filepath.Join(mod, "b")}
		gotText, gotJSON := renderAll(t, dirs, Options{})
		wantText, wantJSON := referenceRender(t, mod, dirs)
		sameRender(t, mod, gotText, gotJSON, wantText, wantJSON)
		return gotText
	}
	before, files := lint(m1), pooledFiles()
	writeFiles(t, m1, map[string]string{"a/a.go": "package a\n\ntype T struct {\n\tX, Y int64\n\tPad  [128]byte\n}\n"})
	if after := lint(m1); after == before {
		t.Errorf("growing a.T past a line did not change b's lint:\n%s", after)
	}
	if got := pooledFiles(); got != files {
		t.Errorf("re-checking a and w left %d files in the pooled FileSet, want %d", got, files)
	}
	lint(m2)
}

// TestFileSetStaysBounded pins that repeated lints leave the pooled
// FileSet's file count where the first lint left it: a linted package's
// files leave the set, and unchanged module-local imports are reused, not
// parsed again.
func TestFileSetStaysBounded(t *testing.T) {
	isolatePool(t)
	patterns := []string{"../../examples/gofront/falseshare", filepath.Join(localmodDir(t), "d")}
	var want int
	for i := 0; i < 20; i++ {
		if _, err := Run(patterns[i%2:i%2+1], Options{}); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			want = pooledFiles()
			continue
		}
		if got := pooledFiles(); got != want {
			t.Fatalf("after %d lints the pooled FileSet holds %d files, after 2 it held %d", i+1, got, want)
		}
	}
}

// TestResolveLocalFallsBack pins the paths the in-process resolver must
// leave to the source importer, beside the module-local ones it takes.
func TestResolveLocalFallsBack(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"go.mod":            "module m\n\ngo 1.22\n",
		"a/a.go":            "package a\n",
		"cgo/cgo.go":        "package cgo\n\nimport \"C\"\n",
		"empty/doc.txt":     "no Go here\n",
		"inner/go.mod":      "module m/inner\n",
		"inner/x/x.go":      "package x\n",
		"p/internal/q/q.go": "package q\n",
		"bad/go.mod":        "module (\n\tm/bad\n)\n",
		"bad/c/c.go":        "package c\n",
	})
	tests := []struct {
		path, from string
		local      bool
	}{
		{"m/a", ".", true},
		{"m/a", "inner/x", false}, // inner's own module is m/inner
		{"m/p/internal/q", "p", true},
		{"m/p/internal/q", "a", false},
		{"sync", ".", false},
		{"m/missing", ".", false},
		{"m/empty", ".", false},
		{"m/cgo", ".", false},
		{"m/inner/x", ".", false},
		{"m/../a", ".", false},
		{"mx/a", ".", false},
		{"m/bad/c", "bad", false},
	}
	for _, tt := range tests {
		dir, bp := resolveLocal(tt.path, filepath.Join(root, tt.from))
		if got := bp != nil; got != tt.local {
			t.Errorf("resolveLocal(%q) from %s: local %v, want %v", tt.path, tt.from, got, tt.local)
		}
		if tt.local && dir != filepath.Join(root, filepath.FromSlash(tt.path[len("m/"):])) {
			t.Errorf("resolveLocal(%q) = %s", tt.path, dir)
		}
	}
}

func TestModulePath(t *testing.T) {
	tests := []struct {
		gomod, path string
		ok          bool
	}{
		{"module m\n\ngo 1.22\n", "m", true},
		{"// fixture\nmodule example.com/x/v2 // trailing\r\n", "example.com/x/v2", true},
		{"module \"quoted/path\"\n", "quoted/path", true},
		{"module `raw/path`\n", "raw/path", true},
		{"go 1.22\n", "", false},
		{"module a\nmodule b\n", "", false},
		{"module (\n\tm\n)\n", "", false},
		{"module m extra\n", "", false},
		{"module \"open\n", "", false},
		{"module m/../x\n", "", false},
		{"module /abs\n", "", false},
		{"module m\\x\n", "", false},
		{"module \"\"\nmodule m\n", "", false},
	}
	for _, tt := range tests {
		path, ok := modulePath([]byte(tt.gomod))
		if ok != tt.ok || (ok && path != tt.path) {
			t.Errorf("modulePath(%q) = %q, %v; want %q, %v", tt.gomod, path, ok, tt.path, tt.ok)
		}
	}
}

// FuzzModulePath: the go.mod reader takes untrusted input. It must never
// panic, and whatever it accepts must be a path it would accept again on
// its own module line.
func FuzzModulePath(f *testing.F) {
	for _, seed := range []string{
		"module m\n", "module \"a/b\"\ngo 1.22\n", "module `x`", "module (\n\tm\n)\n",
		"module a // c\nmodule b\n", "module \"\\xff\"\n", "\xffmodule m", "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, gomod []byte) {
		path, ok := modulePath(gomod)
		if !ok {
			return
		}
		if !validModulePath(path) {
			t.Fatalf("accepted invalid module path %q", path)
		}
		if again, ok := modulePath([]byte("module " + path + "\n")); !ok || again != path {
			t.Fatalf("accepted %q but rejects its own module line", path)
		}
	})
}
