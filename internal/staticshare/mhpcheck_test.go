package staticshare_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"structlayout/internal/gofront"
	"structlayout/internal/irtext"
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
	if len(paths) < 13 {
		t.Fatalf("found only %d golden .slp programs: %v", len(paths), paths)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rep := checkSrc(t, p, string(src), mhpOptions{MaxStates: maxStates})
		if rep.States == 0 {
			t.Errorf("%s: enumerated zero states", p)
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

// instStr picks a random instance expression.
func instStr(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return "shared 0"
	case 1:
		return "shared 1"
	case 2:
		return "percpu"
	default:
		return "param 0"
	}
}

// genProgram builds a random but valid fork/join program: a parent
// interleaving writes, spawns, joins and channel receives over a few
// leaf workers (some of which send), plus an optional flat auxiliary
// thread. The sync discipline (handles unique, join after spawn,
// top-level only, sync procs never called) is respected by
// construction; everything else — join coverage, channel pairing,
// iteration counts, deadlocks — is left to chance, which is exactly
// what the soundness assertion should survive.
func genProgram(r *rand.Rand) string {
	nw := 1 + r.Intn(3)
	var b strings.Builder
	b.WriteString("program gen\n\nstruct S {\n    f0 i64\n    f1 i64\n    f2 i64\n}\n\n")
	workerSend := make([]string, nw)
	for i := 0; i < nw; i++ {
		fmt.Fprintf(&b, "proc w%d {\n", i)
		for j := 0; j < 1+r.Intn(2); j++ {
			fmt.Fprintf(&b, "    write S.f%d %s\n", r.Intn(3), instStr(r))
		}
		if r.Intn(3) == 0 {
			ch := fmt.Sprintf("c%d", i)
			workerSend[i] = ch
			fmt.Fprintf(&b, "    send %s\n", ch)
			if r.Intn(2) == 0 {
				fmt.Fprintf(&b, "    write S.f%d %s\n", r.Intn(3), instStr(r))
			}
		}
		b.WriteString("}\n\n")
	}
	b.WriteString("proc parent {\n")
	var spawned []int
	joined := make(map[int]bool)
	recvd := make(map[int]bool)
	nextWorker := 0
	for a := 0; a < 4+r.Intn(5); a++ {
		switch r.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "    write S.f%d %s\n", r.Intn(3), instStr(r))
		case 1:
			if nextWorker < nw {
				fmt.Fprintf(&b, "    spawn h%d %d w%d", nextWorker, 1+nextWorker, nextWorker)
				if r.Intn(3) == 0 {
					fmt.Fprintf(&b, " params %d", r.Intn(3))
				}
				b.WriteString("\n")
				spawned = append(spawned, nextWorker)
				nextWorker++
			}
		case 2:
			for _, i := range spawned {
				if !joined[i] {
					fmt.Fprintf(&b, "    join h%d\n", i)
					joined[i] = true
					break
				}
			}
		case 3:
			for _, i := range spawned {
				if workerSend[i] != "" && !recvd[i] {
					fmt.Fprintf(&b, "    recv %s\n", workerSend[i])
					recvd[i] = true
					break
				}
			}
		}
	}
	for _, i := range spawned {
		if !joined[i] && r.Intn(2) == 0 {
			fmt.Fprintf(&b, "    join h%d\n", i)
			joined[i] = true
		}
	}
	b.WriteString("}\n\n")
	aux := r.Intn(2) == 0
	if aux {
		b.WriteString("proc aux {\n")
		for j := 0; j < 1+r.Intn(2); j++ {
			fmt.Fprintf(&b, "    write S.f%d %s\n", r.Intn(3), instStr(r))
		}
		b.WriteString("}\n\n")
	}
	fmt.Fprintf(&b, "arena S 2\nthread 0 parent iters %d\n", 1+r.Intn(2))
	if aux {
		fmt.Fprintf(&b, "thread %d aux iters %d\n", 5, 1+r.Intn(2))
	}
	return b.String()
}

// TestGeneratedForkJoin is the property test: many random fork/join
// programs, every reachable co-enabled pair admitted by the static
// relation.
func TestGeneratedForkJoin(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := genProgram(r)
		checkSrc(t, fmt.Sprintf("seed-%d", seed), src, mhpOptions{MaxStates: 40000})
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
