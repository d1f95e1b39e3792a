package staticshare

import (
	"strings"
	"testing"

	"structlayout/internal/concurrency"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
)

// classProg builds a program with one access of every sharing class:
//
//	data.ws_a / data.ws_b   written at shared 0 by distinct threads  -> write-shared, certain
//	data.rd_a / data.rd_b   read at shared 0 by distinct threads     -> read-shared
//	data.pt_a / data.pt_b   written at param 0 (distinct bindings)   -> never-shared
//	guarded.g_a / guarded.g_b written under a common global lock     -> lock-serialized
//
// The lock word lives in its own struct so its acquire access (which is
// not protected by the lock it takes) cannot pollute the data structs'
// pair classes.
func classProg(t *testing.T) (*ir.Program, Config) {
	t.Helper()
	p := ir.NewProgram("classes")
	data := ir.NewStruct("data",
		ir.I64("ws_a"), ir.I64("ws_b"),
		ir.I64("rd_a"), ir.I64("rd_b"),
		ir.I64("pt_a"), ir.I64("pt_b"),
	)
	guarded := ir.NewStruct("guarded", ir.I64("g_a"), ir.I64("g_b"))
	mu := ir.NewStruct("mu", ir.I64("word"))
	p.AddStruct(data)
	p.AddStruct(guarded)
	p.AddStruct(mu)
	w0 := p.NewProc("writer0")
	w0.Write(data, "ws_a", ir.Shared(0))
	w0.Read(data, "rd_a", ir.Shared(0))
	w0.Write(data, "pt_a", ir.Param(0))
	w0.Lock(mu, "word", ir.Shared(0))
	w0.Write(guarded, "g_a", ir.Shared(0))
	w0.Unlock(mu, "word", ir.Shared(0))
	w0.Done()
	w1 := p.NewProc("writer1")
	w1.Write(data, "ws_b", ir.Shared(0))
	w1.Read(data, "rd_b", ir.Shared(0))
	w1.Write(data, "pt_b", ir.Param(0))
	w1.Lock(mu, "word", ir.Shared(0))
	w1.Write(guarded, "g_b", ir.Shared(0))
	w1.Unlock(mu, "word", ir.Shared(0))
	w1.Done()
	cfg := Config{
		Threads: []Thread{
			{CPU: 0, Proc: "writer0", Params: []int{0}, Iters: 4},
			{CPU: 1, Proc: "writer1", Params: []int{1}, Iters: 4},
		},
		Arenas: map[string]int{"data": 8, "guarded": 1, "mu": 1},
	}
	return p.MustFinalize(), cfg
}

func fieldIdx(t *testing.T, st *ir.StructType, name string) int {
	t.Helper()
	for i, f := range st.Fields {
		if f.Name == name {
			return i
		}
	}
	t.Fatalf("struct %s has no field %s", st.Name, name)
	return -1
}

func TestClassification(t *testing.T) {
	p, cfg := classProg(t)
	r, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Struct("data")
	check := func(st *ir.StructType, f1, f2 string, want PairClass, wantCertain bool) {
		t.Helper()
		pi := r.Pair(st.Name, fieldIdx(t, st, f1), fieldIdx(t, st, f2))
		if pi.Class != want || pi.Certain != wantCertain {
			t.Errorf("%s.%s/%s: got %v (certain=%v), want %v (certain=%v)",
				st.Name, f1, f2, pi.Class, pi.Certain, want, wantCertain)
		}
	}
	check(data, "ws_a", "ws_b", WriteShared, true)
	check(data, "rd_a", "rd_b", ReadShared, false)
	check(data, "pt_a", "pt_b", NeverShared, false)
	check(p.Struct("guarded"), "g_a", "g_b", LockSerialized, false)
}

func TestPerThreadLockDoesNotSerialize(t *testing.T) {
	p, cfg := classProg(t)
	// Same program, but the lock instance now derives from param 0, which
	// the two threads bind to distinct values: exclusion evaporates and the
	// guarded pair becomes certain write-shared. The lock arena needs more
	// than one instance — indices compare modulo the count, and modulo 1
	// every binding is the same lock.
	cfg.Arenas["mu"] = 8
	for _, b := range p.Blocks() {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op == ir.OpLock || in.Op == ir.OpUnlock) && in.Struct.Name == "mu" {
				in.Inst = ir.Param(0)
			}
		}
	}
	r, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Struct("guarded")
	pi := r.Pair("guarded", fieldIdx(t, g, "g_a"), fieldIdx(t, g, "g_b"))
	if pi.Class != WriteShared || !pi.Certain {
		t.Fatalf("per-thread lock: got %v (certain=%v), want certain write-shared", pi.Class, pi.Certain)
	}
}

func TestSweepOverlapsEverything(t *testing.T) {
	p := ir.NewProgram("sweep")
	s := ir.NewStruct("node", ir.I64("n_key"), ir.I64("n_gen"))
	p.AddStruct(s)
	scan := p.NewProc("scan")
	scan.Loop(16, func(b *ir.Builder) {
		b.Read(s, "n_key", ir.LoopVar())
	})
	scan.Done()
	bump := p.NewProc("bump")
	bump.Write(s, "n_gen", ir.Param(0))
	bump.Done()
	prog := p.MustFinalize()
	r, err := Analyze(prog, Config{
		Threads: []Thread{
			{CPU: 0, Proc: "scan", Iters: 1},
			{CPU: 1, Proc: "bump", Params: []int{3}, Iters: 1},
		},
		Arenas: map[string]int{"node": 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := r.Pair("node", 0, 1)
	if pi.Class != WriteShared || !pi.Certain {
		t.Fatalf("sweep x param write: got %v (certain=%v), want certain write-shared", pi.Class, pi.Certain)
	}
}

func TestUnknownParamIsUncertain(t *testing.T) {
	p := ir.NewProgram("unknown")
	s := ir.NewStruct("cell", ir.I64("c_a"), ir.I64("c_b"))
	p.AddStruct(s)
	w := p.NewProc("touch")
	w.Write(s, "c_a", ir.Param(0))
	w.Write(s, "c_b", ir.Param(1))
	w.Done()
	prog := p.MustFinalize()
	// Thread 1 declares only one parameter, so param 1 is unbound: the
	// overlap degrades to may, the class to uncertain write-shared.
	r, err := Analyze(prog, Config{
		Threads: []Thread{
			{CPU: 0, Proc: "touch", Params: []int{0, 1}, Iters: 1},
			{CPU: 1, Proc: "touch", Params: []int{0}, Iters: 1},
		},
		Arenas: map[string]int{"cell": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := r.Pair("cell", 0, 1)
	if pi.Class != WriteShared || pi.Certain {
		t.Fatalf("unknown param: got %v (certain=%v), want uncertain write-shared", pi.Class, pi.Certain)
	}
}

func TestExclusiveAndMHP(t *testing.T) {
	p := ir.NewProgram("mhp")
	s := ir.NewStruct("tbl", ir.I64("t_x"))
	p.AddStruct(s)
	only0 := p.NewProc("only0")
	only0.Write(s, "t_x", ir.PerCPU())
	only0.Done()
	only1 := p.NewProc("only1")
	only1.Write(s, "t_x", ir.PerCPU())
	only1.Done()
	both := p.NewProc("both")
	both.Read(s, "t_x", ir.Shared(0))
	both.Done()
	e0 := p.NewProc("entry0")
	e0.Call("only0")
	e0.Call("both")
	e0.Done()
	e1 := p.NewProc("entry1")
	e1.Call("only1")
	e1.Call("both")
	e1.Done()
	prog := p.MustFinalize()
	r, err := Analyze(prog, Config{
		Threads: []Thread{
			{CPU: 0, Proc: "entry0", Iters: 1},
			{CPU: 1, Proc: "entry1", Iters: 1},
		},
		Arenas: map[string]int{"tbl": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	b0 := prog.Proc("only0").Blocks[0].Global
	b1 := prog.Proc("only1").Blocks[0].Global
	bb := prog.Proc("both").Blocks[0].Global
	if !r.Exclusive(b0, b0) {
		t.Error("single-thread block should be exclusive with itself")
	}
	if r.Exclusive(b0, b1) {
		t.Error("blocks reached by two different threads can run concurrently: MHP")
	}
	if r.Exclusive(bb, bb) {
		t.Error("block reached by two threads should be MHP with itself")
	}
	if !r.MayHappenInParallel(b0, bb) {
		t.Error("single-thread block vs shared block should be MHP (distinct threads reach both)")
	}
}

func TestCheckCC(t *testing.T) {
	p, cfg := classProg(t)
	r, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b0 := p.Proc("writer0").Blocks[0].Global
	b1 := p.Proc("writer1").Blocks[0].Global
	// Sanity: the two entry procs are each reached by one thread only.
	if !r.Exclusive(b0, b0) {
		t.Fatal("writer0's block should be self-exclusive")
	}
	clean := &concurrency.Map{CC: map[concurrency.Pair]float64{
		concurrency.MakePair(b0, b1): 5, // distinct threads: genuinely MHP
	}}
	if chk := r.CheckCC(clean); chk.Agreement != 1 || chk.ContradictedMass != 0 {
		t.Fatalf("clean map: agreement %v, contradicted %v; want 1, 0", chk.Agreement, chk.ContradictedMass)
	}
	bad := &concurrency.Map{CC: map[concurrency.Pair]float64{
		concurrency.MakePair(b0, b1): 3,
		concurrency.MakePair(b0, b0): 1, // self-pair of a single-thread block: impossible
	}}
	chk := r.CheckCC(bad)
	if chk.ContradictedMass != 1 || chk.ContradictedPairs != 1 {
		t.Fatalf("bad map: contradicted mass %v pairs %d; want 1, 1", chk.ContradictedMass, chk.ContradictedPairs)
	}
	if chk.Agreement >= 1 || chk.Agreement <= 0 {
		t.Fatalf("bad map: agreement %v, want in (0,1)", chk.Agreement)
	}
	if chk := r.CheckCC(nil); chk.Agreement != 1 {
		t.Fatalf("nil map: agreement %v, want 1", chk.Agreement)
	}
}

func TestApplyPrior(t *testing.T) {
	p, cfg := classProg(t)
	r, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Struct("data")
	wsA, wsB := fieldIdx(t, data, "ws_a"), fieldIdx(t, data, "ws_b")
	key := [2]int{wsA, wsB}
	if wsA > wsB {
		key = [2]int{wsB, wsA}
	}
	g := &flg.Graph{
		Struct: data,
		Pairs:  map[[2]int]flg.Edge{key: {F1: key[0], F2: key[1], Gain: 100}},
	}
	pr := r.ApplyPrior(g)
	if pr.Certain == 0 {
		t.Fatal("prior should floor at least one certain pair")
	}
	if e := g.Pairs[key]; e.Loss <= e.Gain {
		t.Fatalf("certain write-shared pair: loss %v must exceed gain %v", e.Loss, e.Gain)
	}
	// Idempotent: a second application must not move the graph.
	before := g.Pairs[key]
	r.ApplyPrior(g)
	if g.Pairs[key] != before {
		t.Fatalf("prior not idempotent: %+v -> %+v", before, g.Pairs[key])
	}
}

func TestAnalyzeValidation(t *testing.T) {
	p, cfg := classProg(t)
	if _, err := Analyze(nil, cfg); err == nil {
		t.Error("nil program should error")
	}
	bad := cfg
	bad.Threads = append([]Thread(nil), cfg.Threads...)
	bad.Threads[0].Proc = "no_such_proc"
	if _, err := Analyze(p, bad); err == nil || !strings.Contains(err.Error(), "no_such_proc") {
		t.Errorf("unknown entry proc: got %v", err)
	}
	// Zero threads is allowed: nothing is shared, lock facts remain.
	r, err := Analyze(p, Config{Arenas: cfg.Arenas})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pairs) != 0 {
		t.Errorf("no threads: want no sharing pairs, got %v", r.Pairs)
	}
}

func TestAnalyzeDamagedProgramNoPanic(t *testing.T) {
	p, cfg := classProg(t)
	// Damage the finalized program the way the fault-injection tests
	// damage CFGs: nil struct pointers on field instructions.
	for _, b := range p.Blocks() {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpField {
				b.Instrs[i].Struct = nil
			}
		}
	}
	r, err := Analyze(p, cfg)
	if err == nil && r == nil {
		t.Fatal("nil result without error")
	}
	// Either outcome is fine; panicking is not (recover turns it into err).
}

// TestAnalyzeUnfinalized: a program Finalize never saw has no call order
// and no blocks; Analyze returns an error instead of a result with no
// facts.
func TestAnalyzeUnfinalized(t *testing.T) {
	p := ir.NewProgram("unfinalized")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	p.NewProc("w0").Call("helper").Write(s, "a", ir.Shared(0)).Done()
	p.NewProc("w1").Write(s, "b", ir.Shared(0)).Done()
	p.NewProc("helper").Read(s, "b", ir.Shared(0)).Done()
	cfg := Config{Threads: []Thread{{CPU: 0, Proc: "w0", Iters: 1}, {CPU: 1, Proc: "w1", Iters: 1}}}
	if r, err := Analyze(p, cfg); err == nil || r != nil {
		t.Fatalf("unfinalized program: result %v, err %v; want an error", r, err)
	}
}

// uncountedProg writes two distinct fixed instance indices of one struct
// from two threads; the arena count is whatever the caller declares.
func uncountedProg(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram("uncounted")
	s := ir.NewStruct("blob", ir.I64("b_a"), ir.I64("b_b"))
	p.AddStruct(s)
	w0 := p.NewProc("w0")
	w0.Write(s, "b_a", ir.Shared(0))
	w0.Done()
	w1 := p.NewProc("w1")
	w1.Write(s, "b_b", ir.Shared(3))
	w1.Done()
	return p.MustFinalize()
}

func uncountedThreads() []Thread {
	return []Thread{
		{CPU: 0, Proc: "w0", Iters: 1},
		{CPU: 1, Proc: "w1", Iters: 1},
	}
}

func TestUnknownArenaCountIsConservative(t *testing.T) {
	prog := uncountedProg(t)
	// Without a declared count, indices 0 and 3 collide at any count
	// dividing 3 — and the interpreter's undeclared-arena default is a
	// single instance, where they certainly collide. Distinctness must
	// not be provable: the pair degrades to (uncertain) write-shared,
	// never to never-shared.
	r, err := Analyze(prog, Config{Threads: uncountedThreads()})
	if err != nil {
		t.Fatal(err)
	}
	pi := r.Pair("blob", 0, 1)
	if pi.Class != WriteShared || pi.Certain {
		t.Fatalf("unknown count, distinct indices: got %v (certain=%v), want uncertain write-shared", pi.Class, pi.Certain)
	}
	// With a count that keeps the indices apart, distinctness is exact.
	r2, err := Analyze(prog, Config{Threads: uncountedThreads(), Arenas: map[string]int{"blob": 8}})
	if err != nil {
		t.Fatal(err)
	}
	if pi := r2.Pair("blob", 0, 1); pi.Class != NeverShared {
		t.Fatalf("count 8, indices 0 vs 3: got %v, want never-shared", pi.Class)
	}
	// And with a count that folds them together, the collision is certain.
	r3, err := Analyze(prog, Config{Threads: uncountedThreads(), Arenas: map[string]int{"blob": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if pi := r3.Pair("blob", 0, 1); pi.Class != WriteShared || !pi.Certain {
		t.Fatalf("count 3, indices 0 vs 3: got %v (certain=%v), want certain write-shared", pi.Class, pi.Certain)
	}
}

func TestUnknownCountEqualIndicesStayCertain(t *testing.T) {
	p := ir.NewProgram("uncounted_eq")
	s := ir.NewStruct("blob", ir.I64("b_a"), ir.I64("b_b"))
	p.AddStruct(s)
	w0 := p.NewProc("w0")
	w0.Write(s, "b_a", ir.Shared(5))
	w0.Done()
	w1 := p.NewProc("w1")
	w1.Write(s, "b_b", ir.Shared(5))
	w1.Done()
	// i mod n == i mod n for every n: equal raw indices must-overlap even
	// with the count unknown.
	r, err := Analyze(p.MustFinalize(), Config{Threads: uncountedThreads()})
	if err != nil {
		t.Fatal(err)
	}
	if pi := r.Pair("blob", 0, 1); pi.Class != WriteShared || !pi.Certain {
		t.Fatalf("unknown count, equal indices: got %v (certain=%v), want certain write-shared", pi.Class, pi.Certain)
	}
}

func TestUnknownCountParamBindingsNotDistinct(t *testing.T) {
	p := ir.NewProgram("uncounted_param")
	s := ir.NewStruct("cell", ir.I64("c_a"), ir.I64("c_b"))
	p.AddStruct(s)
	w := p.NewProc("touch")
	w.Write(s, "c_a", ir.Param(0))
	w.Write(s, "c_b", ir.Param(0))
	w.Done()
	prog := p.MustFinalize()
	threads := []Thread{
		{CPU: 0, Proc: "touch", Params: []int{0}, Iters: 1},
		{CPU: 1, Proc: "touch", Params: []int{4}, Iters: 1},
	}
	// Distinct param bindings prove nothing without a count (0 and 4
	// collide at counts 1, 2, 4): uncertain write-shared, param footprint.
	r, err := Analyze(prog, Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	if pi := r.Pair("cell", 0, 1); pi.Class != WriteShared || pi.Certain {
		t.Fatalf("unknown count, param bindings: got %v (certain=%v), want uncertain write-shared", pi.Class, pi.Certain)
	}
	for _, a := range r.Accesses {
		if a.Foot == FootPerThread {
			t.Fatalf("unknown count: access %s.%s claims per-thread distinctness", a.Struct.Name, a.Struct.Fields[a.Field].Name)
		}
	}
	// The declared count restores the proof.
	r2, err := Analyze(prog, Config{Threads: threads, Arenas: map[string]int{"cell": 8}})
	if err != nil {
		t.Fatal(err)
	}
	if pi := r2.Pair("cell", 0, 1); pi.Class != NeverShared {
		t.Fatalf("count 8, distinct bindings: got %v, want never-shared", pi.Class)
	}
}

func TestFileConfigDefaultsUndeclaredArenas(t *testing.T) {
	src := `
program defaulted

struct blob {
    b_a i64
    b_b i64
}

proc w0 { write blob.b_a shared 0 }
proc w1 { write blob.b_b shared 3 }

thread 0 w0 iters 1
thread 1 w1 iters 1
`
	f, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FileConfig(f)
	// driver.Run gives undeclared arenas one instance; the static config
	// must match, or the DSL path would report may-overlaps the
	// interpreter contradicts.
	if n := cfg.Arenas["blob"]; n != 1 {
		t.Fatalf("undeclared arena defaulted to %d instances, want 1", n)
	}
	r, err := Analyze(f.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pi := r.Pair("blob", 0, 1); pi.Class != WriteShared || !pi.Certain {
		t.Fatalf("one-instance default: got %v (certain=%v), want certain write-shared", pi.Class, pi.Certain)
	}
}

func TestSummary(t *testing.T) {
	p, cfg := classProg(t)
	r, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary("data")
	if s == nil {
		t.Fatal("summary for data should exist")
	}
	text := s.String()
	if !strings.Contains(text, "write-shared") || !strings.Contains(text, "ws_a") {
		t.Errorf("summary missing expected content:\n%s", text)
	}
	if r.Summary("mu") == nil {
		// The lock struct has accesses too; either way must not panic.
		t.Log("no summary for mu (no pairs) — fine")
	}
	if r.Summary("no_such_struct") != nil {
		t.Error("summary for unknown struct should be nil")
	}
}
