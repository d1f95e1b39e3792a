package gofront

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/staticshare"
)

// corpusPatterns returns the committed real-world corpus, skipping the
// test entirely if it is not checked out (it always is in-tree).
func corpusPatterns(t *testing.T) []string {
	t.Helper()
	if _, err := os.Stat("../../examples/corpus"); err != nil {
		t.Skip("examples/corpus not present")
	}
	return []string{"../../examples/corpus/..."}
}

// renderAll runs the patterns and returns the rendered text plus the
// ranked findings JSON — the two byte-level views determinism is pinned
// on.
func renderAll(t *testing.T, patterns []string, opts Options) (string, string) {
	t.Helper()
	reports, err := Run(patterns, opts)
	if err != nil {
		t.Fatalf("Run(%v): %v", patterns, err)
	}
	js, err := staticshare.MarshalFindings(AllFindings(reports))
	if err != nil {
		t.Fatal(err)
	}
	return RenderText(reports), string(js)
}

// TestZeroMatchPatternDegrades pins the contract for patterns that match
// nothing: Run must not error, and must surface one lint-skipped report
// per dead pattern — alone or mixed with patterns that do match.
func TestZeroMatchPatternDegrades(t *testing.T) {
	empty := t.TempDir()
	dead := filepath.Join(empty, "nothing", "...")

	reports, err := Run([]string{dead}, Options{})
	if err != nil {
		t.Fatalf("Run with only a dead pattern must degrade, got error: %v", err)
	}
	if len(reports) != 1 || reports[0].Err == nil {
		t.Fatalf("want 1 errored report, got %+v", reports)
	}
	if !strings.Contains(reports[0].Err.Error(), "pattern matched no Go packages") {
		t.Errorf("unhelpful zero-match error: %v", reports[0].Err)
	}
	all := AllFindings(reports)
	if len(all) != 1 || all[0].Code != staticshare.CodeLintSkipped {
		t.Fatalf("want one lint-skipped finding, got %+v", all)
	}

	// Mixed with a live package: the live one lints, the dead one reports.
	good := filepath.Join(t.TempDir(), "ok")
	if err := os.MkdirAll(good, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package ok\n\ntype T struct{ a, b int64 }\n\nvar v T\n\nfunc Use() { v.a = 1; v.b = 2 }\n"
	if err := os.WriteFile(filepath.Join(good, "ok.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err = Run([]string{dead, good}, Options{})
	if err != nil {
		t.Fatalf("mixed run must degrade: %v", err)
	}
	if len(reports) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reports))
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
		t.Errorf("want 1 skipped + 1 linted, got %d/%d", skipped, ok)
	}
}

// TestCacheColdWarmIdentical pins the cache round trip: a cold run
// misses once per package, a warm run hits every package with zero
// re-analysis, and both render byte-identical text and findings JSON
// (the cold path decodes its own serialized report, so there is no
// fresh-vs-replayed drift to hide).
func TestCacheColdWarmIdentical(t *testing.T) {
	patterns := corpusPatterns(t)
	cache := memo.New()
	opts := Options{Cache: cache}

	before := cache.Stats()
	coldText, coldJSON := renderAll(t, patterns, opts)
	cold := cache.Stats().Sub(before)
	if cold.Misses == 0 || cold.Hits() != 0 {
		t.Fatalf("cold run: want all misses, got %+v", cold)
	}

	before = cache.Stats()
	warmText, warmJSON := renderAll(t, patterns, opts)
	warm := cache.Stats().Sub(before)
	if warm.Misses != 0 {
		t.Fatalf("warm run re-analyzed %d package(s): %+v", warm.Misses, warm)
	}
	if warm.MemHits != cold.Misses {
		t.Errorf("warm run: want %d hits, got %+v", cold.Misses, warm)
	}
	if coldText != warmText {
		t.Errorf("cold and warm rendered text differ:\ncold:\n%s\nwarm:\n%s", coldText, warmText)
	}
	if coldJSON != warmJSON {
		t.Errorf("cold and warm findings JSON differ")
	}

	// Warm reports carry CacheHit and no Model; cold ones the reverse.
	reports, err := Run(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Err != nil {
			continue
		}
		if !r.CacheHit {
			t.Errorf("%s: warm report not marked CacheHit", r.Package)
		}
		if r.Model != nil {
			t.Errorf("%s: cached replay carries a Model", r.Package)
		}
	}
}

// TestCacheDiskTier pins -cache-dir semantics: a fresh in-memory cache
// pointed at the same directory serves the second run from disk.
func TestCacheDiskTier(t *testing.T) {
	patterns := corpusPatterns(t)
	dir := t.TempDir()

	c1 := memo.New()
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	coldText, _ := renderAll(t, patterns, Options{Cache: c1})

	c2 := memo.New()
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	before := c2.Stats()
	warmText, _ := renderAll(t, patterns, Options{Cache: c2})
	delta := c2.Stats().Sub(before)
	if delta.Misses != 0 || delta.DiskHits == 0 {
		t.Fatalf("second process: want all disk hits, got %+v", delta)
	}
	if coldText != warmText {
		t.Errorf("disk-replayed text differs from cold run")
	}
}

// TestCacheInvalidationPerPackage pins the tentpole's incremental
// contract: editing one file in a multi-package tree re-analyzes exactly
// that file's package — every other package stays a hit.
func TestCacheInvalidationPerPackage(t *testing.T) {
	root := t.TempDir()
	mk := func(pkg, body string) string {
		dir := filepath.Join(root, pkg)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, pkg+".go")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tpl := func(pkg string) string {
		return "package " + pkg + "\n\nimport \"sync/atomic\"\n\ntype S struct{ a, b int64 }\n\nvar g S\n\nfunc Start() {\n\tgo w1()\n\tgo w2()\n}\n\nfunc w1() { atomic.AddInt64(&g.a, 1) }\nfunc w2() { atomic.AddInt64(&g.b, 1) }\n"
	}
	mk("alpha", tpl("alpha"))
	edited := mk("beta", tpl("beta"))
	mk("gamma", tpl("gamma"))

	cache := memo.New()
	opts := Options{Cache: cache}
	patterns := []string{filepath.Join(root, "...")}

	if _, err := Run(patterns, opts); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := Run(patterns, opts); err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats().Sub(before)
	if warm.Misses != 0 || warm.MemHits != 3 {
		t.Fatalf("pre-edit warm run: want 3 hits 0 misses, got %+v", warm)
	}

	// Touch one package: append a comment (the key hashes contents, so
	// even a semantically inert edit must invalidate that package only).
	src, err := os.ReadFile(edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edited, append(src, []byte("\n// edited\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	before = cache.Stats()
	if _, err := Run(patterns, opts); err != nil {
		t.Fatal(err)
	}
	delta := cache.Stats().Sub(before)
	if delta.Misses != 1 || delta.MemHits != 2 {
		t.Fatalf("post-edit run: want exactly 1 miss + 2 hits, got %+v", delta)
	}
}

// TestCorpusDeterminism pins byte-identical output across worker counts
// and pattern orders on the real corpus — the gather-by-index contract
// end to end.
func TestCorpusDeterminism(t *testing.T) {
	corpusPatterns(t)
	// Individual package dirs, to permute pattern order meaningfully.
	dirs, unmatched, err := expandPatterns([]string{"../../examples/corpus/..."})
	if err != nil || len(unmatched) > 0 {
		t.Fatalf("expand: %v %v", err, unmatched)
	}
	if len(dirs) < 10 {
		t.Fatalf("corpus too small: %v", dirs)
	}
	reversed := make([]string, len(dirs))
	for i, d := range dirs {
		reversed[len(dirs)-1-i] = d
	}

	saved := parallel.Limit()
	defer parallel.SetLimit(saved)

	var refText, refJSON string
	for _, j := range []int{1, 2, 8} {
		parallel.SetLimit(j)
		text, js := renderAll(t, dirs, Options{})
		if refText == "" {
			refText, refJSON = text, js
			continue
		}
		if text != refText || js != refJSON {
			t.Fatalf("-j %d output differs from -j 1", j)
		}
		rtext, rjs := renderAll(t, reversed, Options{})
		if rtext != refText || rjs != refJSON {
			t.Fatalf("-j %d reversed-pattern output differs", j)
		}
	}
}

// TestCorpusExpectedVerdicts pins the shape of the committed corpus so
// it cannot silently rot: which packages are clean, and that every
// findings-bearing package reports static false sharing or the
// per-thread-lock smell.
func TestCorpusExpectedVerdicts(t *testing.T) {
	reports, err := Run(corpusPatterns(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantClean := map[string]bool{
		"readmostly": true,
		"spscpad":    true,
		"workqueue":  true,
		// The happens-before trio: flagged under flat thread modeling,
		// clean once joins and rendezvous edges are proven.
		"wgfanout":  true,
		"chanstage": true,
		"handoff":   true,
	}
	if len(reports) != 15 {
		t.Fatalf("corpus has %d packages, want 15", len(reports))
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Errorf("%s: skipped: %v", r.Package, r.Err)
			continue
		}
		name := filepath.Base(r.Package)
		if wantClean[name] {
			if len(r.Findings) != 0 {
				t.Errorf("%s: want clean, got %d finding(s): %v", name, len(r.Findings), r.Findings)
			}
			continue
		}
		if len(r.Findings) == 0 {
			t.Errorf("%s: want findings, got clean", name)
			continue
		}
		okCode := false
		for _, f := range r.Findings {
			if f.Code == staticshare.CodeFalseSharing || f.Code == staticshare.CodePerThreadLock {
				okCode = true
			}
		}
		if !okCode {
			t.Errorf("%s: no false-sharing or per-thread-lock finding: %v", name, r.Findings)
		}
	}
}

// TestCachedReportRoundTrip pins the serialization itself: severities
// survive by name, and the findings and the rendered report come back
// unchanged.
func TestCachedReportRoundTrip(t *testing.T) {
	reports, err := Run([]string{"../../examples/gofront/falseshare"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Err != nil {
		t.Fatalf("unexpected reports: %+v", reports)
	}
	raw, err := json.Marshal(reports[0])
	if err != nil {
		t.Fatal(err)
	}
	var probe map[string]any
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	back, err := decodeReport(reports[0].Package, raw)
	if err != nil {
		t.Fatal(err)
	}
	a, err := staticshare.MarshalFindings(AllFindings([]*Report{reports[0]}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := staticshare.MarshalFindings(AllFindings([]*Report{back}))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("findings changed across the cache round trip:\nbefore: %s\nafter:  %s", a, b)
	}
	if before, after := RenderText(reports), RenderText([]*Report{back}); before != after {
		t.Errorf("rendered report changed across the cache round trip:\nbefore: %s\nafter:  %s", before, after)
	}
}
