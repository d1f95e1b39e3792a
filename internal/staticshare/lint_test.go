package staticshare

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"structlayout/internal/concurrency"
	"structlayout/internal/diag"
	"structlayout/internal/irtext"
	"structlayout/internal/irtext/irtexttest"
)

// lintSource parses and lints one DSL source; parse errors return nil
// findings (the linter's contract only covers programs that parse).
func lintSource(t *testing.T, src string) []Finding {
	t.Helper()
	f, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	findings, _, err := LintFile(f, 128)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	return findings
}

func readExample(t *testing.T, rel string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestLintExamplesGolden pins the linter's verdict on the shipped example
// programs: the seeded-false-sharing ones flag, the clean one stays
// silent — the same contract the CI lint job asserts through the CLI.
func TestLintExamplesGolden(t *testing.T) {
	cases := []struct {
		path      string
		wantCodes []string // every code that must appear; empty = clean
	}{
		{"examples/lint/clean.slp", nil},
		{"examples/lint/falseshare.slp", []string{CodeFalseSharing, CodePerThreadLock}},
		{"examples/lint/forkjoin.slp", []string{CodeFalseSharing}},
		{"examples/lint/pipeline.slp", nil},
		{"examples/dslprogram/webserver.slp", []string{CodeFalseSharing}},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(tc.path), func(t *testing.T) {
			findings := lintSource(t, readExample(t, tc.path))
			if len(tc.wantCodes) == 0 {
				if len(findings) != 0 {
					t.Fatalf("want clean, got %d findings: %+v", len(findings), findings)
				}
				return
			}
			if len(findings) == 0 {
				t.Fatal("want findings, got none")
			}
			got := make(map[string]bool)
			for _, f := range findings {
				got[f.Code] = true
			}
			for _, code := range tc.wantCodes {
				if !got[code] {
					t.Errorf("missing finding code %s (got %v)", code, got)
				}
			}
		})
	}
}

// TestLintFalseShareDetails pins the exact fields the seeded example
// flags, so a ranking or classification regression is visible as more
// than an exit-code flip.
func TestLintFalseShareDetails(t *testing.T) {
	findings := lintSource(t, readExample(t, "examples/lint/falseshare.slp"))
	var pairs []string
	for _, f := range findings {
		if f.Code == CodeFalseSharing {
			pairs = append(pairs, strings.Join(f.Fields, "/"))
		}
	}
	want := map[string]bool{"s_lock/s_errs": true, "s_lock/s_reqs": true, "s_reqs/s_errs": true}
	if len(pairs) != len(want) {
		t.Fatalf("false-sharing pairs %v, want exactly %v", pairs, want)
	}
	for _, pr := range pairs {
		if !want[pr] {
			t.Errorf("unexpected false-sharing pair %s", pr)
		}
	}
}

func TestFindingsJSONRoundTrip(t *testing.T) {
	findings := lintSource(t, readExample(t, "examples/lint/falseshare.slp"))
	raw, err := MarshalFindings(findings)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(findings) {
		t.Fatalf("decoded %d findings, want %d", len(decoded), len(findings))
	}
	if sev, ok := decoded[0]["severity"].(string); !ok || sev == "" {
		t.Errorf("severity should marshal as a non-empty string, got %v", decoded[0]["severity"])
	}
	var back []Finding
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, findings) {
		t.Errorf("findings changed across the JSON round trip:\nbefore: %+v\nafter:  %+v", findings, back)
	}
	// Empty slices marshal as an empty array, not null.
	raw, err = MarshalFindings(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != "[]" {
		t.Errorf("nil findings marshal to %q, want []", raw)
	}
}

func TestReportDiagMirrorsFindings(t *testing.T) {
	findings := lintSource(t, readExample(t, "examples/lint/falseshare.slp"))
	log := diag.NewLog()
	ReportDiag(log, findings)
	if log.Len() == 0 {
		t.Fatal("diag log should carry the findings")
	}
	if !strings.Contains(log.String(), CodeFalseSharing) {
		t.Errorf("diag log missing %s:\n%s", CodeFalseSharing, log.String())
	}
}

func TestLintCC(t *testing.T) {
	f, err := irtext.Parse(readExample(t, "examples/lint/clean.slp"))
	if err != nil {
		t.Fatal(err)
	}
	_, r, err := LintFile(f, 128)
	if err != nil {
		t.Fatal(err)
	}
	if fs := r.LintCC(nil); len(fs) != 0 {
		t.Errorf("nil map: want no CC findings, got %v", fs)
	}
	// Mass on an MHP pair of the real program is consistent: no finding.
	var b0 = f.Prog.Proc("worker").Blocks[0].Global
	ok := &concurrency.Map{CC: map[concurrency.Pair]float64{concurrency.MakePair(b0, b0): 2}}
	if fs := r.LintCC(ok); len(fs) != 0 {
		t.Errorf("consistent map: want no CC findings, got %v", fs)
	}
}

// TestLintParseCorpusNoPanic sweeps the irtext fuzz corpus through the
// linter: anything the parser accepts, the linter must survive.
func TestLintParseCorpusNoPanic(t *testing.T) {
	root := filepath.Join("..", "irtext", "testdata", "fuzz")
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		src := decodeGoFuzzCorpus(t, path)
		if src == "" {
			return nil
		}
		f, perr := irtext.Parse(src)
		if perr != nil {
			return nil
		}
		if _, _, lerr := LintFile(f, 128); lerr != nil {
			t.Logf("%s: lint degraded: %v", path, lerr) // degrading is fine; panicking is not
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("linted %d corpus programs", n)
}

// decodeGoFuzzCorpus extracts the single string argument of a Go fuzz
// corpus file ("go test fuzz v1\nstring(...)"), or "" when the file is
// not in that shape.
func decodeGoFuzzCorpus(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 2)
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return ""
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimPrefix(body, "string(")
	body = strings.TrimSuffix(body, ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return ""
	}
	return s
}

// FuzzLint asserts the linter's no-panic contract over arbitrary inputs
// — whatever irtext.Parse accepts, LintFile analyzes or degrades with an
// error, never panics — and tries to break the verdict memo: on every
// input LintFile accepts, its classification and findings must equal
// the un-memoized oracle's.
func FuzzLint(f *testing.F) {
	// The seeds include gofront-lowered programs and fork/join and
	// channel programs, whose happens-before segments key conflicts.
	for _, slp := range irtexttest.Committed(f) {
		f.Add(slp.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := irtext.Parse(src)
		if err != nil {
			return
		}
		findings, _, err := LintFile(file, 128)
		if err != nil {
			return
		}
		for _, fd := range findings {
			if fd.Message == "" || fd.Code == "" {
				t.Fatalf("malformed finding: %+v", fd)
			}
		}
		assertLintEqualsOracle(t, "input", file)
	})
}
