package staticshare

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"structlayout/internal/irtext"
	"structlayout/internal/machine"
	"structlayout/internal/workload"
)

// goldenPrograms returns every committed .slp program (the DSL goldens,
// the example programs, the engine's runahead fixtures and the gofront
// lowered goldens) plus the built-in SDET suite's program file on Bus4,
// Way16 and Superdome128: the only inputs with 16 to 128 threads,
// per-CPU arenas and locks on parameter instances.
func goldenPrograms(t *testing.T) map[string]*irtext.File {
	t.Helper()
	var paths []string
	for _, pattern := range []string{
		"../../examples/lint/*.slp",
		"../../examples/dslprogram/*.slp",
		"../driver/testdata/*.slp",
		"../exec/testdata/runahead/*.slp",
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
	files := make(map[string]*irtext.File, len(paths)+3)
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
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*machine.Topology{machine.Bus4(), machine.Way16(), machine.Superdome128()} {
		files["sdet/"+topo.Name] = suite.File(topo)
	}
	return files
}

// TestVerdictMemoEqualsOracleOnGoldens is the differential gate for
// the verdict memo: on every golden program classify must produce
// classifications bit-identical to the un-memoized oracle walk —
// classes, certainty, evidence indices, and the float Weights, with no
// tolerance.
func TestVerdictMemoEqualsOracleOnGoldens(t *testing.T) {
	for path, f := range goldenPrograms(t) {
		cfg := FileConfig(f)
		memo, err := Analyze(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: analyze: %v", path, err)
		}
		exact, err := analyzeExact(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: oracle analyze: %v", path, err)
		}
		if !reflect.DeepEqual(memo.Pairs, exact.Pairs) {
			t.Errorf("%s: memoized and oracle classifications differ\nmemo:   %+v\noracle: %+v",
				path, memo.Pairs, exact.Pairs)
		}
		if !reflect.DeepEqual(memo.Accesses, exact.Accesses) {
			t.Errorf("%s: collected accesses differ between walks", path)
		}
	}
}

// TestVerdictMemoLintEqualsOracleOnGoldens extends the differential
// gate through the linter: the ranked findings (including weights and
// the per-thread-lock check, whose verdicts are memoized by conflict key
// too) must be byte-identical between the two walks.
func TestVerdictMemoLintEqualsOracleOnGoldens(t *testing.T) {
	for path, f := range goldenPrograms(t) {
		assertLintEqualsOracle(t, path, f)
	}
}

// assertLintEqualsOracle requires LintFile and the oracle linter to give
// DeepEqual classifications and byte-equal findings JSON.
func assertLintEqualsOracle(t *testing.T, name string, f *irtext.File) {
	t.Helper()
	memoF, memoRes, err := LintFile(f, 128)
	if err != nil {
		t.Fatalf("%s: lint: %v", name, err)
	}
	exactF, exactRes, err := lintFileExact(f, 128)
	if err != nil {
		t.Fatalf("%s: oracle lint: %v", name, err)
	}
	if !reflect.DeepEqual(memoRes.Pairs, exactRes.Pairs) {
		t.Fatalf("%s: memoized and oracle classifications differ\nmemo:   %+v\noracle: %+v",
			name, memoRes.Pairs, exactRes.Pairs)
	}
	mj, err := MarshalFindings(memoF)
	if err != nil {
		t.Fatal(err)
	}
	ej, err := MarshalFindings(exactF)
	if err != nil {
		t.Fatal(err)
	}
	if string(mj) != string(ej) {
		t.Fatalf("%s: lint findings differ\nmemo:   %s\noracle: %s", name, mj, ej)
	}
}

// TestVerdictMemoEqualsOracleSynthetic stresses the equivalence on
// synthetic programs that exercise the corners the goldens miss: a call
// diamond, unknown arena counts, param bindings, sweeps, and frequency
// mixes from nested loops and branches.
func TestVerdictMemoEqualsOracleSynthetic(t *testing.T) {
	// (No program here recurses: ir.Finalize rejects call cycles, and
	// the analysis propagates down the call order it fixes.)
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
		memo, err := Analyze(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		exact, err := analyzeExact(f.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: oracle analyze: %v", name, err)
		}
		if !reflect.DeepEqual(memo.Pairs, exact.Pairs) {
			t.Errorf("%s: memoized and oracle classifications differ\nmemo:   %+v\noracle: %+v",
				name, memo.Pairs, exact.Pairs)
		}
	}
}
