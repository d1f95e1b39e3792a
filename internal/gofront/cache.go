// cache.go is the content-addressed per-package report cache: a
// -go-lint run with Options.Cache set keys each package by its source
// file names + contents, the analysis options and the toolchain version,
// and replays the serialized report on a hit — so editing one file
// re-analyzes only its own package while every untouched package comes
// back from the cache (with -cache-dir, across processes). Keys never
// include the directory path: findings, suggestions and notes carry no
// absolute paths (the display path is prefixed at render time), so a hit
// is valid wherever the tree sits.
package gofront

import (
	"encoding/json"
	"fmt"
	"runtime"

	"structlayout/internal/memo"
)

// cacheSchema versions the cached-report encoding and the analysis
// semantics behind it. Bump on any change to extraction, lowering,
// classification or the serialized shape — stale entries then miss
// instead of replaying wrong results. 2: a lock taken through a pointer
// parameter or receiver names that pointer's instance. 3: a suggested
// reordering pads no group seam that already falls on a line boundary.
// 4: the entry is the Report's own JSON, severities by name.
const cacheSchema = 4

// reportKey derives the content-addressed cache key for one package's
// lint report.
func reportKey(names []string, srcs [][]byte) memo.Key {
	h := memo.NewHasher()
	h.Str("kind", "gofront/report")
	h.Int("gofront-schema", cacheSchema)
	h.Str("go-version", runtime.Version())
	// FreshImporters is deliberately not keyed — it changes only load
	// cost, never results.
	h.Int("files", int64(len(names)))
	for i, name := range names {
		h.Str("file-name", name)
		h.Str("file-src", string(srcs[i]))
	}
	return h.Sum()
}

// decodeReport reads a cached report: the Report's JSON-tagged fields,
// everything RenderText, AllFindings and -lint-json consume, but not the
// Model, which only uncached callers need.
func decodeReport(dir string, raw []byte) (*Report, error) {
	rep := &Report{Package: dir}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("corrupt cached report: %w", err)
	}
	return rep, nil
}

// lintDir loads and lints one directory, serving the report from the
// cache when one is configured. Errors (unreadable dirs, parse
// failures, analysis failures) are never cached: they return a Report
// with Err set, and the next run retries.
func lintDir(dir string, opts Options) *Report {
	names, srcs, err := readGoFiles(dir)
	if err != nil {
		return &Report{Package: dir, Err: fmt.Errorf("%s: %w", dir, err)}
	}
	// Nothing reads a linted package's positions after Extract, so its
	// files leave the pooled FileSet.
	if opts.Cache == nil {
		pkg, perr := loadFiles(dir, names, srcs, opts)
		if perr != nil {
			return &Report{Package: dir, Err: fmt.Errorf("%s: %w", dir, perr)}
		}
		defer forgetFiles(pkg.Fset, pkg.Files)
		return LintPackage(pkg, opts)
	}
	key := reportKey(names, srcs)
	var computed *Report
	raw, err := opts.Cache.Do(key, func() ([]byte, error) {
		pkg, perr := loadFiles(dir, names, srcs, opts)
		if perr != nil {
			return nil, fmt.Errorf("%s: %w", dir, perr)
		}
		rep := LintPackage(pkg, opts)
		forgetFiles(pkg.Fset, pkg.Files)
		if rep.Err != nil {
			return nil, rep.Err
		}
		computed = rep
		return json.Marshal(rep)
	})
	if err != nil {
		return &Report{Package: dir, Err: err}
	}
	// Decode the serialized bytes even on a fresh miss, so cold and warm
	// runs render the identical (round-tripped) report.
	rep, derr := decodeReport(dir, raw)
	if derr != nil {
		return &Report{Package: dir, Err: fmt.Errorf("%s: %w", dir, derr)}
	}
	if computed != nil {
		rep.Model = computed.Model
	} else {
		rep.CacheHit = true
	}
	return rep
}
