package staticshare_test

import (
	"fmt"
	"testing"

	"structlayout/internal/gofront"
	"structlayout/internal/irtext"
	"structlayout/internal/irtext/irtexttest"
)

// checkSrc parses a DSL source and checks it (checkFile).
func checkSrc(t *testing.T, name, src string, opt mhpOptions) *mhpReport {
	t.Helper()
	f, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	return checkFile(t, name, f, opt)
}

// checkFile runs the harness over a program and fails the test on any
// soundness violation.
func checkFile(t *testing.T, name string, f *irtext.File, opt mhpOptions) *mhpReport {
	t.Helper()
	rep, err := mhpCheck(f, opt)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	if !rep.Ok() {
		t.Errorf("%s: %d soundness violation(s) in %d states:", name, len(rep.Violations), rep.States)
		for _, v := range rep.Violations {
			t.Errorf("  %s: tasks %d/%d blocks %v/%v", v.Kind, v.T1, v.T2, v.B1, v.B2)
		}
		t.Logf("program:\n%s", irtext.Format(f))
	}
	return rep
}

// TestGoldens asserts soundness on every committed program: each .slp
// file, and each Go package under examples/corpus and examples/gofront as
// gofront lowers it (WaitGroup joins and channel rendezvous become spawn,
// join, send and recv). All reachable co-enabled block pairs must be
// admitted by the static MHP relation. The lowered packages are small
// enough that every enumeration must be complete; the largest DSL
// programs truncate, and the assertion covers their explored prefix.
func TestGoldens(t *testing.T) {
	const maxStates = 30000
	for _, slp := range irtexttest.Committed(t) {
		rep := checkFile(t, slp.Path, slp.File, mhpOptions{MaxStates: maxStates})
		if rep.States == 0 {
			t.Errorf("%s: enumerated zero states", slp.Path)
		}
	}
	pkgs, loadErrs, err := gofront.Load([]string{"../../examples/corpus/...", "../../examples/gofront/..."}, gofront.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lerr := range loadErrs {
		t.Errorf("load: %v", lerr)
	}
	if len(pkgs) != 17 {
		t.Fatalf("loaded %d packages, want the 15 corpus + 2 gofront examples", len(pkgs))
	}
	for _, pkg := range pkgs {
		model, err := gofront.Extract(pkg, gofront.Options{})
		if err != nil {
			t.Fatalf("%s: extract: %v", pkg.Dir, err)
		}
		rep := checkFile(t, pkg.Dir, model.File, mhpOptions{MaxStates: maxStates})
		if rep.States == 0 || rep.Truncated {
			t.Errorf("%s: enumeration not complete: %d states, truncated %v", pkg.Dir, rep.States, rep.Truncated)
		}
	}
}

// TestForkJoinPrograms drives the harness over the hand-written HB
// exemplars — fork/join, channels, degraded iteration — including the
// shapes where the static relation claims real orderings.
func TestForkJoinPrograms(t *testing.T) {
	srcs := map[string]string{
		"forkjoin": `program forkjoin

struct S {
    a i64
    b i64
}

proc parent {
    write S.a shared 0
    spawn h 1 child
    join h
    write S.a shared 0
}

proc child {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`,
		"pipeline": `program pipeline

struct S {
    a i64
    b i64
}

proc stage1 {
    write S.a shared 0
    send c
}

proc stage2 {
    recv c
    write S.b shared 0
}

arena S 1
thread 0 stage1 iters 1
thread 1 stage2 iters 1
`,
		"crossed-deadlock": `program crossed

struct S {
    a i64
    b i64
}

proc p1 {
    write S.a shared 0
    recv x
    send y
}

proc p2 {
    write S.b shared 0
    recv y
    send x
}

arena S 1
thread 0 p1 iters 1
thread 1 p2 iters 1
`,
		"iterated-joined": `program iterated

struct S {
    a i64
    b i64
}

proc parent {
    write S.a shared 0
    spawn h 1 child
    join h
    write S.a shared 0
}

proc child {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 3
`,
		"siblings": `program siblings

struct S {
    a i64
    b i64
}

proc parent {
    spawn h1 1 w1
    spawn h2 2 w2
    join h1
    join h2
    write S.a shared 0
}

proc w1 {
    write S.a shared 0
}

proc w2 {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`,
		"locked": `program locked

struct S {
    m i64
    a i64
    b i64
}

proc t1 {
    lock S.m shared 0
    write S.a shared 0
    unlock S.m shared 0
}

proc t2 {
    lock S.m shared 0
    write S.b shared 0
    unlock S.m shared 0
}

arena S 1
thread 0 t1 iters 2
thread 1 t2 iters 2
`,
	}
	for name, src := range srcs {
		rep := checkSrc(t, name, src, mhpOptions{})
		if rep.States == 0 {
			t.Errorf("%s: enumerated zero states", name)
		}
	}
}

// TestGeneratedForkJoin is the property test: many random fork/join
// programs (irtexttest.ForkJoin), every reachable co-enabled pair
// admitted by the static relation. A violation is shrunk and printed as a
// DSL program.
func TestGeneratedForkJoin(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	opt := mhpOptions{MaxStates: 40000}
	for seed := 0; seed < n; seed++ {
		g := irtexttest.ForkJoin(int64(seed))
		f, err := g.File()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep := checkFile(t, fmt.Sprintf("seed-%d", seed), f, opt); !rep.Ok() {
			shrunk, err := irtexttest.Shrink(g, func(f *irtext.File) bool {
				rep, err := mhpCheck(f, opt)
				return err == nil && !rep.Ok()
			}).File()
			if err != nil {
				t.Fatal(err)
			}
			t.Fatalf("seed %d: shrunk program:\n%s", seed, irtext.Format(shrunk))
		}
	}
}

// TestRefinementObserved guards against the harness passing vacuously.
// The parent overlaps with the child between spawn and join, so
// co-enabled pairs must be observed — and none may violate the static
// relation. The fully serial fork/join exemplar is the converse check:
// the parent is parked at join whenever the child runs, so the
// enumeration must find NO co-enabled pair at all.
func TestRefinementObserved(t *testing.T) {
	overlap := `program observe

struct S {
    a i64
    b i64
}

proc parent {
    spawn h 1 child
    write S.a shared 0
    join h
    write S.a shared 0
}

proc child {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`
	rep := checkSrc(t, "observe", overlap, mhpOptions{})
	if rep.Pairs == 0 {
		t.Fatal("no co-enabled pairs observed: harness is vacuous")
	}
	if rep.Truncated {
		t.Fatal("tiny program truncated")
	}

	serial := `program serialobserve

struct S {
    a i64
    b i64
}

proc parent {
    write S.a shared 0
    spawn h 1 child
    join h
    write S.a shared 0
}

proc child {
    write S.b shared 0
}

arena S 1
thread 0 parent iters 1
`
	rep = checkSrc(t, "serialobserve", serial, mhpOptions{})
	if rep.Pairs != 0 {
		t.Fatalf("serial fork/join produced %d co-enabled pairs; parent should be parked at join while the child runs", rep.Pairs)
	}
}
