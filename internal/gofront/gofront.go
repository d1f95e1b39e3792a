// Package gofront is the Go-package frontend for the static sharing
// analysis: it loads real Go packages with go/parser + go/types (stdlib
// only, no go/packages dependency; imports under the importing package's
// own module resolve in process, while imports from other modules,
// nested modules and cgo packages still cost a `go list` subprocess, as
// docs/GOFRONT.md details), extracts struct definitions with their field
// sizes and alignments, derives per-goroutine field-access footprints
// (`go` statements as declared threads, sync.Mutex/RWMutex Lock..Unlock
// call regions as lock-held regions, same-package calls followed
// interprocedurally), and lowers the result into internal/ir — so
// staticshare classification, the CycleLoss prior and the lint findings
// apply to actual Go code unchanged. docs/GOFRONT.md states the extraction rules and the known
// unsoundness relative to the DSL path.
package gofront

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/staticshare"
)

// The model gofront lowers every package under.
const (
	// goArch selects the size/alignment model: amd64, the paper's 64-bit
	// machines.
	goArch = "amd64"
	// lintLineSize is the coherence-line size the linter checks
	// co-location against, matching the DSL lint path.
	lintLineSize = 128
	// loopTrip is the assumed trip count for Go loops, whose bounds are
	// rarely static. It only weights finding ranks.
	loopTrip = 8
	// spawnsPerLoopGo is how many threads model a `go` statement inside a
	// loop: enough for distinct-thread conflicts to exist.
	spawnsPerLoopGo = 2
	// maxThreads caps the modeled threads per package, keeping per-CPU
	// instance indices below instBase.
	maxThreads = 16
)

// Options parameterize loading and linting. The zero value is usable.
type Options struct {
	// Cache, when non-nil, memoizes per-package reports content-addressed
	// by the source file names + contents and the toolchain (never the
	// directory path, so a hit is valid wherever the tree sits). Cached
	// replays return reports without a Model — callers that need the
	// lowered program must run uncached. Nil disables caching.
	Cache *memo.Cache
	// FreshImporters disables the package-level reuse of typechecker
	// importers (each load pays full transitive re-typechecking). Bench
	// use only, to time the un-amortized path honestly.
	FreshImporters bool
}

// Package is one loaded, type-checked Go package.
type Package struct {
	// Dir is the package directory as resolved from the pattern — the
	// stable display name for findings.
	Dir   string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Sizes types.Sizes
	// TypeErrs collects tolerated type errors (unresolved imports of
	// non-stdlib packages, and so on). Extraction degrades around them.
	TypeErrs []error
}

// Load resolves package patterns to directories and parses + typechecks
// each, fanning the per-directory work out over internal/parallel with
// gather-by-index (results are sorted by directory, independent of
// pattern order and of -j). A pattern is a directory path, or a path
// ending in "/..." which walks the subtree for every directory holding
// Go files (skipping dot/underscore directories, testdata, and _test.go
// files — the same shape the go tool gives the pattern). Patterns that
// match no Go packages surface as per-pattern load errors (never
// silently dropped); per-package load failures come back in loadErrs
// with the rest of the run intact.
func Load(patterns []string, opts Options) ([]*Package, []error, error) {
	dirs, unmatched, err := expandPatterns(patterns)
	if err != nil {
		return nil, nil, err
	}
	var loadErrs []error
	for _, pat := range unmatched {
		loadErrs = append(loadErrs, fmt.Errorf("%s: pattern matched no Go packages", pat))
	}
	type loadRes struct {
		pkg *Package
		err error
	}
	results, _ := parallel.Map(len(dirs), func(i int) (loadRes, error) {
		pkg, perr := loadDir(dirs[i], opts)
		return loadRes{pkg, perr}, nil
	})
	var pkgs []*Package
	for i, res := range results {
		if res.err != nil {
			loadErrs = append(loadErrs, fmt.Errorf("%s: %w", dirs[i], res.err))
			continue
		}
		pkgs = append(pkgs, res.pkg)
	}
	if len(pkgs) == 0 && len(loadErrs) == 0 {
		return nil, nil, fmt.Errorf("gofront: no Go packages match %v", patterns)
	}
	return pkgs, loadErrs, nil
}

// expandPatterns resolves pattern strings to a sorted, deduplicated
// directory list, plus the patterns that matched no Go packages at all
// (so the caller can diagnose them instead of silently linting nothing).
func expandPatterns(patterns []string) (dirs, unmatched []string, err error) {
	seen := make(map[string]bool)
	add := func(dir string) {
		clean := filepath.Clean(dir)
		if !seen[clean] {
			seen[clean] = true
			dirs = append(dirs, clean)
		}
	}
	for _, pat := range patterns {
		if pat == "" {
			continue
		}
		root, recursive := pat, false
		if strings.HasSuffix(pat, "/...") {
			root, recursive = strings.TrimSuffix(pat, "/..."), true
			if root == "" {
				root = "."
			}
		}
		fi, err := os.Stat(root)
		if err != nil || !fi.IsDir() {
			// A dead root is a pattern that matched nothing, not a fatal
			// run error: the caller turns it into a lint-skipped report.
			unmatched = append(unmatched, pat)
			continue
		}
		if !recursive {
			// Explicit directory: always resolved; loadDir reports "no Go
			// files" if it is empty.
			add(root)
			continue
		}
		found := false
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				found = true
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("gofront: %w", err)
		}
		if !found {
			unmatched = append(unmatched, pat)
		}
	}
	sort.Strings(dirs)
	sort.Strings(unmatched)
	return dirs, unmatched, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// goFileNames lists the non-test Go files of a directory, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// loadDir parses and typechecks one directory as a package. Type errors
// are tolerated (recorded, extraction degrades); parse errors are not —
// without syntax there is nothing to extract.
func loadDir(dir string, opts Options) (*Package, error) {
	names, srcs, err := readGoFiles(dir)
	if err != nil {
		return nil, err
	}
	return loadFiles(dir, names, srcs, opts)
}

// readGoFiles reads the directory's non-test Go sources into memory —
// the same bytes the cache key hashes and the parser consumes, so a key
// always describes exactly what was analyzed.
func readGoFiles(dir string) ([]string, [][]byte, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no Go files")
	}
	srcs := make([][]byte, len(names))
	for i, name := range names {
		src, rerr := os.ReadFile(filepath.Join(dir, name))
		if rerr != nil {
			return nil, nil, rerr
		}
		srcs[i] = src
	}
	return names, srcs, nil
}

// typeBundle is a reusable (FileSet, importer) pair. The importer
// re-typechecks every transitive import from source, which for
// sync/atomic-importing packages costs far more than the package's own
// analysis; reusing it amortizes that across packages (the source
// importer's package cache persists, and the module-local cache keeps
// what is unchanged), which is where most of the cold -go-lint speedup
// comes from. A bundle serves one goroutine at a time;
// the free list is a bounded channel (not a sync.Pool, whose GC-driven
// drops would make reuse timing-dependent), so a burst of parallel
// loads cannot pin unbounded typechecked state either.
type typeBundle struct {
	fset *token.FileSet
	imp  *localImporter
}

var bundleFree = make(chan *typeBundle, 8)

func acquireBundle(opts Options) *typeBundle {
	if !opts.FreshImporters {
		select {
		case b := <-bundleFree:
			return b
		default:
		}
	}
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &typeBundle{fset: fset, imp: newLocalImporter(fset, src)}
}

func releaseBundle(b *typeBundle, opts Options) {
	if opts.FreshImporters {
		return
	}
	select {
	case bundleFree <- b:
	default:
	}
}

// loadFiles parses and typechecks an in-memory package. Sharing a pooled
// FileSet across packages is safe for extraction: positions are only
// ever compared within one package (a package's files parse
// consecutively, so their offsets are mutually ordered) and nothing
// downstream renders absolute offsets.
func loadFiles(dir string, names []string, srcs [][]byte, opts Options) (*Package, error) {
	bundle := acquireBundle(opts)
	defer releaseBundle(bundle, opts)
	bundle.imp.begin()
	return checkFiles(bundle.fset, bundle.imp, dir, names, srcs)
}

// checkFiles parses the package's files into fset and typechecks them
// against imp. Files it does not keep leave fset again.
func checkFiles(fset *token.FileSet, imp types.Importer, dir string, names []string, srcs [][]byte) (*Package, error) {
	var files []*ast.File
	pkgName := ""
	for i, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), srcs[i], parser.ParseComments)
		if err != nil {
			forgetFiles(fset, append(files, f))
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			// Mixed-package directory (e.g. main + lib): keep the first
			// package name seen, drop the stragglers.
			forgetFiles(fset, []*ast.File{f})
			continue
		}
		files = append(files, f)
	}
	sizes := types.SizesFor("gc", goArch)
	pkg := &Package{Dir: dir, Name: pkgName, Fset: fset, Files: files, Sizes: sizes}
	conf := types.Config{
		Importer:         imp,
		Sizes:            sizes,
		FakeImportC:      true,
		IgnoreFuncBodies: false,
		Error: func(err error) {
			pkg.TypeErrs = append(pkg.TypeErrs, err)
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	// Check reports the first error even with an Error handler set; the
	// handler has collected everything, so the return is advisory.
	tpkg, _ := conf.Check(dir, fset, files, info)
	pkg.Pkg = tpkg
	pkg.Info = info
	return pkg, nil
}

// forgetFiles removes parsed files from fset, which otherwise keeps every
// file it ever parsed.
func forgetFiles(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		if f != nil {
			fset.RemoveFile(fset.File(f.FileStart))
		}
	}
}

// Report is the lint outcome for one package.
type Report struct {
	// Package is the display path (the resolved directory).
	Package string `json:"-"`
	// Findings are ranked staticshare findings, message text unprefixed.
	Findings []staticshare.Finding `json:"findings"`
	// Suggestions hold fieldalignment-style reordering diffs for structs
	// with certain co-located write-sharing.
	Suggestions []Suggestion `json:"suggestions"`
	// NumStructs, NumThreads and Notes summarize the lowered model for
	// rendering — carried on the report so cached replays (which have no
	// Model) render identically to fresh analysis.
	NumStructs int      `json:"num_structs"`
	NumThreads int      `json:"num_threads"`
	Notes      []string `json:"notes,omitempty"`
	// Model is the lowered program, nil when Err is set or the report
	// was replayed from the cache; tests and the CLI's -lint-json reuse
	// it.
	Model *Model `json:"-"`
	// CacheHit marks a report served from Options.Cache.
	CacheHit bool `json:"-"`
	// Err is a per-package load or analysis failure: the run degrades to
	// a lint-skipped finding instead of dying.
	Err error `json:"-"`
}

// Run loads every package the patterns name and lints each, in parallel
// with gather-by-index (byte-identical output at any -j): the one-call
// frontend the CLI wraps. Per-package failures and patterns matching no
// packages degrade into Reports with Err set (lint-skipped findings via
// AllFindings) so the caller decides the exit policy; only an empty
// pattern set errors. With Options.Cache set, package reports replay
// from the content-addressed cache instead of re-analyzing.
func Run(patterns []string, opts Options) ([]*Report, error) {
	dirs, unmatched, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 && len(unmatched) == 0 {
		return nil, fmt.Errorf("gofront: no Go packages match %v", patterns)
	}
	reports := make([]*Report, 0, len(dirs)+len(unmatched))
	for _, pat := range unmatched {
		reports = append(reports, &Report{
			Package: pat,
			Err:     fmt.Errorf("%s: pattern matched no Go packages", pat),
		})
	}
	linted, _ := parallel.Map(len(dirs), func(i int) (*Report, error) {
		return lintDir(dirs[i], opts), nil
	})
	reports = append(reports, linted...)
	sort.Slice(reports, func(i, j int) bool { return reports[i].Package < reports[j].Package })
	return reports, nil
}

// LintPackage extracts, lowers and lints one loaded package.
func LintPackage(pkg *Package, opts Options) *Report {
	rep := &Report{Package: pkg.Dir}
	model, err := Extract(pkg, opts)
	if err != nil {
		rep.Err = fmt.Errorf("%s: %w", pkg.Dir, err)
		return rep
	}
	rep.Model = model
	rep.NumStructs = len(model.Structs)
	rep.NumThreads = len(model.File.Threads)
	rep.Notes = model.Notes
	findings, res, err := staticshare.LintFile(model.File, lintLineSize)
	if err != nil {
		rep.Err = fmt.Errorf("%s: %w", pkg.Dir, err)
		return rep
	}
	rep.Findings = findings
	rep.Suggestions = Suggest(model, res, lintLineSize)
	return rep
}

// AllFindings flattens the reports into one ranked finding list with
// package paths prefixed to each message, mapping per-package errors to
// lint-skipped diagnostics — the JSON/exit-code view the CLI shares with
// -lint-dir.
func AllFindings(reports []*Report) []staticshare.Finding {
	var all []staticshare.Finding
	for _, r := range reports {
		if r.Err != nil {
			all = append(all, staticshare.Skipped(r.Package, r.Err))
			continue
		}
		for _, f := range r.Findings {
			f.Message = r.Package + ": " + f.Message
			all = append(all, f)
		}
	}
	staticshare.Rank(all)
	return all
}

// RenderText renders the reports for the terminal, byte-deterministic
// across runs and load orders.
func RenderText(reports []*Report) string {
	var b strings.Builder
	clean := 0
	for _, r := range reports {
		if r.Err == nil && len(r.Findings) == 0 {
			clean++
		}
	}
	fmt.Fprintf(&b, "go-lint: %d package(s), %d clean\n", len(reports), clean)
	for _, r := range reports {
		switch {
		case r.Err != nil:
			fmt.Fprintf(&b, "package %s\n", staticshare.Skipped(r.Package, r.Err).Message)
		case len(r.Findings) == 0:
			fmt.Fprintf(&b, "package %s: clean (%d struct(s), %d thread(s))\n",
				r.Package, r.NumStructs, r.NumThreads)
		default:
			fmt.Fprintf(&b, "package %s: %d finding(s)\n", r.Package, len(r.Findings))
			for _, f := range r.Findings {
				fmt.Fprintf(&b, "  %-8s %-28s %s\n", f.Severity, f.Code, f.Message)
			}
			for _, s := range r.Suggestions {
				fmt.Fprintf(&b, "\n  suggested reordering for struct %s:\n", s.Struct)
				for _, line := range strings.Split(strings.TrimRight(s.Diff, "\n"), "\n") {
					b.WriteString("  " + line + "\n")
				}
			}
		}
		for _, note := range r.Notes {
			fmt.Fprintf(&b, "  note: %s\n", note)
		}
	}
	return b.String()
}
