package staticshare

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"structlayout/internal/irtext"
)

// goldenPrograms returns every committed .slp program: the DSL goldens,
// the example programs, and the gofront lowered goldens.
func goldenPrograms(t *testing.T) map[string]*irtext.File {
	t.Helper()
	var paths []string
	for _, pattern := range []string{
		"../../examples/lint/*.slp",
		"../../examples/dslprogram/*.slp",
		"../driver/testdata/*.slp",
		"../gofront/testdata/*.slp",
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
	if len(paths) < 5 {
		t.Fatalf("found only %d golden .slp programs: %v", len(paths), paths)
	}
	files := make(map[string]*irtext.File, len(paths))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := irtext.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		files[p] = f
	}
	return files
}

// TestSummaryEqualsExactOnGoldens is the differential gate for the
// summary-based classifier: on every committed golden program the
// summary path must produce classifications bit-identical to the exact
// per-access-pair walk — classes, certainty, evidence indices, and the
// float Weights, with no tolerance.
func TestSummaryEqualsExactOnGoldens(t *testing.T) {
	for path, f := range goldenPrograms(t) {
		cfg := FileConfig(f)
		sum, err := Analyze(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: summary analyze: %v", path, err)
		}
		exact, err := analyzeExact(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: exact analyze: %v", path, err)
		}
		if !reflect.DeepEqual(sum.Pairs, exact.Pairs) {
			t.Errorf("%s: summary and exact classifications differ\nsummary: %+v\nexact:   %+v",
				path, sum.Pairs, exact.Pairs)
		}
		if !reflect.DeepEqual(sum.Accesses, exact.Accesses) {
			t.Errorf("%s: collected accesses differ between paths", path)
		}
	}
}

// TestSummaryLintEqualsExactOnGoldens extends the differential gate
// through the linter: the ranked findings (including weights and the
// per-thread-lock check, which has its own memoized group walk) must be
// byte-identical between the two paths.
func TestSummaryLintEqualsExactOnGoldens(t *testing.T) {
	for path, f := range goldenPrograms(t) {
		sumF, _, err := LintFile(f, 128)
		if err != nil {
			t.Fatalf("%s: summary lint: %v", path, err)
		}
		exactF, _, err := lintFileExact(f, 128)
		if err != nil {
			t.Fatalf("%s: exact lint: %v", path, err)
		}
		sj, err := MarshalFindings(sumF)
		if err != nil {
			t.Fatal(err)
		}
		ej, err := MarshalFindings(exactF)
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(ej) {
			t.Errorf("%s: lint findings differ\nsummary: %s\nexact:   %s", path, sj, ej)
		}
	}
}

// TestSummaryEqualsExactSynthetic stresses the equivalence on synthetic
// programs that exercise the corners the goldens miss: recursion (SCC
// components), unknown arena counts, param bindings, sweeps, and
// frequency mixes from nested loops and branches.
func TestSummaryEqualsExactSynthetic(t *testing.T) {
	// (Recursive programs would exercise multi-node SCCs, but ir.Finalize
	// rejects call cycles, so that path stays defensive-only.)
	programs := map[string]string{
		"diamond-freq": `
program diamond
struct S {
    a i64
    b i64
    c i64
}
proc top {
    call left
    call right
}
proc left {
    loop 7 {
        write S.a shared 0
    }
}
proc right {
    if 0.25 {
        write S.b shared 0
    } else {
        read S.c shared 0
    }
}
arena S 1
thread 0 top iters 5
thread 1 top iters 2
`,
		"param-mix": `
program parammix
struct P {
    x i64
    y i64
}
proc w {
    write P.x param 0
    write P.y param 1
}
arena P 4
thread 0 w params 0 1 iters 2
thread 1 w params 0 2 iters 3
thread 2 w params 1 3 iters 1
`,
		"sweep-unknown-count": `
program sweep
struct U {
    a i64
    b i64
}
proc s {
    loop 4 {
        write U.a loopvar
    }
    read U.b shared 3
}
thread 0 s
thread 1 s
`,
	}
	for name, src := range programs {
		f, err := irtext.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := FileConfig(f)
		if name == "sweep-unknown-count" {
			// Strip the FileConfig one-instance default so the
			// unknown-count path is actually exercised.
			delete(cfg.Arenas, "U")
		}
		sum, err := Analyze(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: summary analyze: %v", name, err)
		}
		exact, err := analyzeExact(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: exact analyze: %v", name, err)
		}
		if !reflect.DeepEqual(sum.Pairs, exact.Pairs) {
			t.Errorf("%s: summary and exact classifications differ\nsummary: %+v\nexact:   %+v",
				name, sum.Pairs, exact.Pairs)
		}
	}
}

// TestProcSummariesBuilt pins the summary-path plumbing: each procedure
// with field-touching instructions gets exactly one summary, and
// signature-identical accesses land in one group.
func TestProcSummariesBuilt(t *testing.T) {
	src := `
program summaries
struct S {
    a i64
    b i64
}
proc w {
    write S.a shared 0
    write S.a shared 0
    read S.b shared 0
}
proc q {
    call w
}
arena S 1
thread 0 w iters 1
thread 1 q iters 1
`
	f, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(f.Prog, FileConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	ps := res.ProcSummaryOf("w")
	if ps == nil {
		t.Fatal("no summary for proc w")
	}
	// Two identical S.a writes collapse into one group of count 2, plus
	// the S.b read: two groups.
	if len(ps.Groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(ps.Groups), ps.Groups)
	}
	var total int64
	for _, c := range ps.Groups[0].LocalFreq {
		total += c
	}
	if ps.Groups[0].Field != 0 || !ps.Groups[0].Write || total != 2 {
		t.Errorf("group 0 = %+v (member total %d), want the two S.a writes", ps.Groups[0], total)
	}
	if res.ProcSummaryOf("q") != nil {
		t.Error("proc q touches no fields but has a summary")
	}
}
