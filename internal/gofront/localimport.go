// localimport.go resolves the imports under the importing package's own
// module in process. The source importer (go/build in module mode) runs
// a `go list` child for every path outside GOROOT, and runs it in the
// process's working directory rather than next to the importing package:
// it costs a child per module-local import, and from outside the module
// the import fails. A module-local path names a directory under the
// nearest go.mod, so localImporter maps it there and type-checks that
// directory the way go/internal/srcimporter does. Every path it cannot
// prove module-local goes to the source importer unchanged.
package gofront

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"structlayout/internal/memo"
)

// localImporter is a types.ImporterFrom that type-checks module-local
// packages from source and hands every other path to src. It caches the
// packages it checks by directory for the life of its typeBundle. begin
// starts a load; within a load an entry is reused only if its files are
// unchanged and each of its imports resolves as it did when the entry
// was checked — a module-local one to the same *types.Package — so an
// edit anywhere below a package is seen on the next load.
type localImporter struct {
	fset  *token.FileSet
	src   types.ImporterFrom
	sizes types.Sizes
	cache map[string]*localPkg // by directory
	// Per-load state: entries proven current, and directories being
	// imported (an import cycle reaches one of them again).
	current   map[string]*localPkg
	importing map[string]bool
}

// localPkg is one module-local package as checked.
type localPkg struct {
	path  string
	sum   memo.Key // file names and contents
	pkg   *types.Package
	err   error
	files []*token.File
	deps  []localDep
}

// localDep is one import of a local package and what it resolved to; dir
// is "" for a path the source importer served.
type localDep struct {
	path, dir string
	pkg       *types.Package
}

func newLocalImporter(fset *token.FileSet, src types.ImporterFrom) *localImporter {
	return &localImporter{
		fset:  fset,
		src:   src,
		sizes: types.SizesFor("gc", build.Default.GOARCH),
		cache: make(map[string]*localPkg),
	}
}

// begin starts a load: every cached entry is checked again before reuse.
func (li *localImporter) begin() {
	li.current = make(map[string]*localPkg)
	li.importing = make(map[string]bool)
}

func (li *localImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, ".", 0)
}

func (li *localImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	dep, err := li.importDep(path, srcDir)
	return dep.pkg, err
}

// importDep imports path as seen from srcDir and reports what it
// resolved to.
func (li *localImporter) importDep(path, srcDir string) (localDep, error) {
	dir, bp := resolveLocal(path, srcDir)
	if bp == nil {
		pkg, err := li.src.ImportFrom(path, srcDir, 0)
		return localDep{path: path, pkg: pkg}, err
	}
	pkg, err := li.importDir(path, dir, bp)
	return localDep{path: path, dir: dir, pkg: pkg}, err
}

// importDir returns the package in dir, reusing the cached entry when it
// is current and type-checking the directory otherwise.
func (li *localImporter) importDir(path, dir string, bp *build.Package) (*types.Package, error) {
	if e := li.current[dir]; e != nil {
		return e.pkg, e.err
	}
	if li.importing[dir] {
		return nil, fmt.Errorf("import cycle through package %q", path)
	}
	li.importing[dir] = true
	defer delete(li.importing, dir)
	srcs := make([][]byte, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}
	sum := reportKey(bp.GoFiles, srcs)
	e := li.cache[dir]
	if e == nil || e.path != path || e.sum != sum || !li.depsCurrent(e, dir) {
		if e != nil {
			for _, f := range e.files {
				li.fset.RemoveFile(f)
			}
		}
		e = li.check(path, dir, bp.GoFiles, srcs)
		e.sum = sum
		li.cache[dir] = e
	}
	li.current[dir] = e
	return e.pkg, e.err
}

// depsCurrent reports whether every import of e, a package in dir, still
// resolves as it did when e was checked.
func (li *localImporter) depsCurrent(e *localPkg, dir string) bool {
	for _, d := range e.deps {
		ddir, bp := resolveLocal(d.path, dir)
		if ddir != d.dir {
			return false
		}
		if bp == nil {
			// The source importer's packages live as long as the bundle.
			continue
		}
		if pkg, _ := li.importDir(d.path, ddir, bp); pkg != d.pkg {
			return false
		}
	}
	return true
}

// check parses and type-checks one module-local package as
// go/internal/srcimporter does: function bodies ignored, the host's gc
// sizes, the import path as the package path, and no package at all
// after a hard type error.
func (li *localImporter) check(path, dir string, names []string, srcs [][]byte) *localPkg {
	e := &localPkg{path: path}
	files := make([]*ast.File, 0, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(li.fset, filepath.Join(dir, name), srcs[i], parser.SkipObjectResolution)
		if f != nil {
			e.files = append(e.files, li.fset.File(f.FileStart))
		}
		if err != nil {
			e.err = err
			return e
		}
		files = append(files, f)
	}
	var hardErr error
	conf := types.Config{
		IgnoreFuncBodies: true,
		Importer: importerFunc(func(ipath, srcDir string) (*types.Package, error) {
			dep, err := li.importDep(ipath, srcDir)
			e.deps = append(e.deps, dep)
			return dep.pkg, err
		}),
		Sizes: li.sizes,
		Error: func(err error) {
			if hardErr == nil && !err.(types.Error).Soft {
				hardErr = err
			}
		},
	}
	pkg, err := conf.Check(path, li.fset, files, nil)
	switch {
	case hardErr != nil:
		e.err = fmt.Errorf("type-checking package %q failed (%v)", path, hardErr)
	case err != nil:
		e.pkg, e.err = pkg, fmt.Errorf("type-checking package %q failed (%v)", path, err)
	default:
		e.pkg = pkg
	}
	return e
}

// importerFunc adapts a function to types.ImporterFrom.
type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, ".") }

func (f importerFunc) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, srcDir)
}

// resolveLocal maps an import path, as seen from srcDir, to a directory
// of srcDir's own module and that directory's build files. It returns a
// nil *build.Package whenever it cannot prove the path names a pure-Go
// package of that module; the source importer then resolves the path as
// it always has.
func resolveLocal(path, srcDir string) (string, *build.Package) {
	ctxt := &build.Default
	if ctxt.GOROOT == "" || os.Getenv("GO111MODULE") == "off" {
		return "", nil // go/build does not use modules either
	}
	// As in go/build, a path naming a GOROOT directory is the standard
	// library's.
	if fi, err := os.Stat(filepath.Join(ctxt.GOROOT, "src", filepath.FromSlash(path))); err == nil && fi.IsDir() {
		return "", nil
	}
	abs, err := filepath.Abs(srcDir)
	if err != nil {
		return "", nil
	}
	root, modPath := findModule(abs)
	if root == "" {
		return "", nil
	}
	rel, ok := strings.CutPrefix(path, modPath)
	if !ok || (rel != "" && rel[0] != '/') {
		return "", nil
	}
	dir := root
	if rel != "" {
		elems := strings.Split(rel[1:], "/")
		for i, elem := range elems {
			// Elements the go command ignores or gives special meaning:
			// leave their errors to it.
			if elem == "" || elem[0] == '.' || elem[0] == '_' || elem == "testdata" || elem == "vendor" {
				return "", nil
			}
			// An internal package the importer may not see.
			if elem == "internal" && !within(abs, filepath.Join(root, filepath.Join(elems[:i]...))) {
				return "", nil
			}
		}
		dir = filepath.Join(root, filepath.FromSlash(rel[1:]))
		// A go.mod between the root and the target makes it another
		// module's package.
		for d := dir; d != root; d = filepath.Dir(d) {
			if _, err := os.Lstat(filepath.Join(d, "go.mod")); !errors.Is(err, fs.ErrNotExist) {
				return "", nil
			}
		}
	}
	bp, err := ctxt.ImportDir(dir, 0)
	if err != nil || len(bp.CgoFiles) > 0 {
		return "", nil
	}
	return dir, bp
}

// within reports whether dir is root or below it.
func within(dir, root string) bool {
	return dir == root || strings.HasPrefix(dir, root+string(filepath.Separator))
}

// findModule returns the directory of the nearest go.mod at or above the
// absolute directory dir and the module path it declares, or "" when
// there is none or its module line is not understood.
func findModule(dir string) (root, modPath string) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			if p, ok := modulePath(data); ok {
				return dir, p
			}
			return "", ""
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return "", ""
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", ""
		}
		dir = parent
	}
}

// modulePath returns the path a go.mod's module line declares. It reads
// untrusted input: ok is false unless the file holds exactly one module
// line, of the form `module path` or `module "path"`, whose path is a
// plausible module path.
func modulePath(gomod []byte) (path string, ok bool) {
	seen := false
	for _, line := range strings.Split(string(gomod), "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "module" {
			continue
		}
		if len(f) != 2 || seen {
			return "", false
		}
		seen, path = true, f[1]
		if path[0] == '"' || path[0] == '`' {
			var err error
			if path, err = strconv.Unquote(path); err != nil {
				return "", false
			}
		}
	}
	return path, validModulePath(path)
}

// validModulePath accepts slash-separated elements of letters, digits and
// "-._~+", none empty and none starting or ending with a dot.
func validModulePath(path string) bool {
	if path == "" {
		return false
	}
	for _, elem := range strings.Split(path, "/") {
		if elem == "" || elem[0] == '.' || elem[len(elem)-1] == '.' {
			return false
		}
		for _, r := range elem {
			if !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || strings.ContainsRune("-._~+", r)) {
				return false
			}
		}
	}
	return true
}
