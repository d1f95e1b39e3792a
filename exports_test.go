package structlayout_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported functions and methods under internal/
// that non-test code need not reference, keyed as "pkgpath.Func" or
// "pkgpath.Type.Method". A trailing "." allows a whole package.
var exportAllowlist = map[string]string{
	// Cross-package test helpers: other packages' tests call them, so
	// they cannot move into an export_test.go.
	"structlayout/internal/coherence.SmallCache":          "tiny cache for exec, driver and memo tests",
	"structlayout/internal/ir.Program.Dump":               "program dump for irtext tests",
	"structlayout/internal/layout.Layout.LineAlignedSize": "arena stride for exec tests",
	"structlayout/internal/staticshare.Result.HBDegraded": "happens-before state for core tests",
	"structlayout/internal/staticshare/mhpcheck.":         "soundness oracle; only tests and CI drive it",
}

// TestNoTestOnlyExports fails when an exported function or method under
// internal/ has no reference from non-test code in this module or in
// perfbench/. A method also counts as used when non-test code calls an
// interface method with the same name and an identical signature, or when
// it matches a method of an interface declared by a standard-library
// package the module imports (fmt calls String, encoding/json calls
// MarshalJSON). A helper only one package's tests need belongs in that
// package's export_test.go; one nothing needs should be deleted.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports from source")
	}
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			return nil // no buildable non-test Go files here
		}
		imp := "structlayout"
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		dirs[imp] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	m := &moduleChecker{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		stdPkgs: map[string]*types.Package{},
		dirs:    dirs,
		pkgs:    map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	// Every function and method non-test code references, outside its own
	// body, and every interface method it calls.
	used := map[*types.Func]bool{}
	var ifaceCalls []*types.Func
	for _, files := range m.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = m.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := m.info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					fn = fn.Origin()
					used[fn] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalls = append(ifaceCalls, fn)
					}
					return true
				})
			}
		}
	}
	ifaceCalls = append(ifaceCalls, stdInterfaceMethods(m.stdPkgs)...)
	calledViaInterface := func(fn *types.Func) bool {
		for _, im := range ifaceCalls {
			if im.Name() == fn.Name() && types.Identical(im.Type(), fn.Type()) {
				return true
			}
		}
		return false
	}

	allowed := map[string]bool{}
	var unused []string
	for path, files := range m.files {
		if !strings.HasPrefix(path, "structlayout/internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				key := path + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := recvNamed(recv.Type())
					if named == nil || !named.Obj().Exported() {
						continue // a method of an unexported type is not exported
					}
					key = path + "." + named.Obj().Name() + "." + fn.Name()
				}
				if used[fn] || calledViaInterface(fn) {
					continue
				}
				if _, ok := exportAllowlist[key]; ok {
					allowed[key] = true
					continue
				}
				if _, ok := exportAllowlist[path+"."]; ok {
					allowed[path+"."] = true
					continue
				}
				unused = append(unused, key+" ("+fset.Position(fd.Pos()).String()+")")
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced only by tests: %s", u)
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("stale allowlist entry %s: it is gone or non-test code now references it", key)
		}
	}
}

// stdInterfaceMethods returns the methods of every exported interface the
// given standard-library packages declare, plus error's.
func stdInterfaceMethods(pkgs map[string]*types.Package) []*types.Func {
	var out []*types.Func
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.Exported() {
			return
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				out = append(out, it.Method(i))
			}
		}
	}
	add(types.Universe.Lookup("error"))
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			add(p.Scope().Lookup(name))
		}
	}
	return out
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// moduleChecker type-checks each module package once, from its non-test
// files, sharing one types.Info so that objects compare by identity across
// packages. Standard-library imports go through the source importer.
type moduleChecker struct {
	fset    *token.FileSet
	std     types.Importer
	stdPkgs map[string]*types.Package // standard-library packages the module imports
	dirs    map[string]string
	pkgs    map[string]*types.Package
	files   map[string][]*ast.File
	info    *types.Info
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		p, err := m.std.Import(path)
		if err == nil {
			m.stdPkgs[path] = p
		}
		return p, err
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), src, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	m.files[path] = files
	return p, nil
}
