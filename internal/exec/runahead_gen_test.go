package exec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/exec"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/machine"
)

// genSeeds is how many generated programs TestRunAheadGenerated runs on
// each machine.
const genSeeds = 120

// genParams is how many parameters every generated thread takes.
const genParams = 2

// gKind discriminates generated statements.
type gKind uint8

const (
	gAccess gKind = iota
	gCompute
	gMem
	gIf
	gLoop
	gCall // call callees[callee]
	gLock // lock, body, unlock
)

// callees names the generated callees: visit, and relay, which calls visit.
var callees = []string{"visit", "relay"}

// gStmt is one statement of a generated program, kept as a tree so a
// failing program can be shrunk statement by statement.
type gStmt struct {
	kind   gKind
	st     int // struct index (access, lock)
	field  int // field index (access)
	write  bool
	inst   ir.InstExpr
	cycles int64   // compute
	region string  // mem
	pat    int     // mem: 0 sweep, 1 random, 2 fixed offset
	prob   float64 // if
	count  int64   // loop
	callee int     // call: index into callees
	body   []gStmt // if then-arm, loop body, lock body
	els    []gStmt // if else-arm
}

// gProg is a generated program with its run harness.
type gProg struct {
	seed    int64
	structs [][]ir.Field
	counts  []int
	visit   []gStmt   // callee, called only from loops: holds LoopVar accesses
	relay   []gStmt   // callee, called only from loops: calls visit
	mains   [][]gStmt // entry procedures
	threads []irtext.ThreadDecl
}

// gen draws one random program. Struct 0 has a 64-byte field straddling
// its first line boundary; every struct's last field is a lock word, locked
// through Shared and Param instances so lock handoffs write on the
// waiter's CPU; accesses use all four instance kinds, LoopVar ones inside
// a callee that each entry procedure calls from a loop, both directly and
// through a second callee (a call chain two deep, and one callee reached
// from two call sites); branches with probabilities 0 and 1 and empty
// arms, loops of zero trips and up, and shared and per-thread regions
// fill in the rest.
func gen(seed int64, ncpu int) *gProg {
	rng := rand.New(rand.NewSource(seed))
	g := &gProg{seed: seed}
	widths := []func(string) ir.Field{ir.I8, ir.I16, ir.I32, ir.I64}
	for k, n := 0, 2+rng.Intn(2); k < n; k++ {
		var fields []ir.Field
		if k == 0 {
			// buf starts at 8*w, in [72, 120]: it crosses offset 128.
			for i, w := 0, 9+rng.Intn(7); i < w; i++ {
				fields = append(fields, ir.I64(fmt.Sprintf("w%d", i)))
			}
			fields = append(fields, ir.Arr("buf", 8, 8, 8))
		}
		for i, m := 0, 1+rng.Intn(8); i < m; i++ {
			fields = append(fields, widths[rng.Intn(len(widths))](fmt.Sprintf("f%d", i)))
		}
		// Struct 0's lock word lies past buf, so buf's first line can stay
		// unwritten while its second is written; a pad sometimes moves it
		// off buf's second line too.
		if k == 0 && rng.Intn(2) == 0 {
			fields = append(fields, ir.Arr("pad", 16, 8, 8))
		}
		fields = append(fields, ir.I64("lock"))
		g.structs = append(g.structs, fields)
		g.counts = append(g.counts, 1+rng.Intn(4))
	}
	// Per-struct write share: some structs are read-mostly, so their
	// lines stay unwritten or single-writer and reads can run ahead.
	wprob := make([]float64, len(g.structs))
	for k := range wprob {
		wprob[k] = rng.Float64() * 0.5
	}
	access := func(loopVar bool) gStmt {
		k := rng.Intn(len(g.structs))
		s := gStmt{kind: gAccess, st: k, field: rng.Intn(len(g.structs[k])), write: rng.Float64() < wprob[k]}
		switch n := rng.Intn(4); {
		case loopVar:
			s.inst = ir.LoopVar()
		case n == 0:
			s.inst = ir.Shared(rng.Intn(3))
		case n == 1:
			s.inst = ir.PerCPU()
		default:
			s.inst = ir.Param(rng.Intn(genParams))
		}
		return s
	}
	lock := func(inst ir.InstExpr, body []gStmt) gStmt {
		return gStmt{kind: gLock, st: rng.Intn(len(g.structs)), inst: inst, body: body}
	}
	// stmts draws n statements; locks never nest, so no run deadlocks. A
	// call picks one of the first ncallees callees: entry procedures call
	// either, relay calls visit, and visit calls nothing.
	ncallees := 0
	var stmts func(n, depth int, inLoop, inLock bool) []gStmt
	stmts = func(n, depth int, inLoop, inLock bool) []gStmt {
		var out []gStmt
		for i := 0; i < n; i++ {
			leaf := depth >= 3
			switch c := rng.Intn(20); {
			case c < 8:
				out = append(out, access(inLoop && rng.Intn(4) == 0))
			case c < 10:
				out = append(out, gStmt{kind: gCompute, cycles: 1 + rng.Int63n(40)})
			case c < 12:
				region := "shared"
				if rng.Intn(2) == 0 {
					region = "private"
				}
				out = append(out, gStmt{kind: gMem, region: region, pat: rng.Intn(3), write: rng.Intn(3) == 0})
			case c < 14 && !leaf:
				prob := rng.Float64()
				switch rng.Intn(4) {
				case 0:
					prob = 0
				case 1:
					prob = 1
				}
				out = append(out, gStmt{kind: gIf, prob: prob,
					body: stmts(rng.Intn(3), depth+1, inLoop, inLock),
					els:  stmts(rng.Intn(3), depth+1, inLoop, inLock)})
			case c < 16 && !leaf:
				out = append(out, gStmt{kind: gLoop, count: rng.Int63n(5),
					body: stmts(1+rng.Intn(4), depth+1, true, inLock)})
			case c < 17 && inLoop && ncallees > 0:
				out = append(out, gStmt{kind: gCall, callee: rng.Intn(ncallees)})
			case c < 19 && !inLock && !leaf:
				inst := ir.Shared(rng.Intn(2))
				if rng.Intn(2) == 0 {
					inst = ir.Param(rng.Intn(genParams))
				}
				out = append(out, lock(inst, stmts(1+rng.Intn(3), depth+1, inLoop, true)))
			default:
				out = append(out, gStmt{kind: gCompute, cycles: 1 + rng.Int63n(10)})
			}
		}
		return out
	}
	g.visit = append(stmts(rng.Intn(3), 1, true, true), access(true))
	g.visit = append(g.visit, stmts(rng.Intn(3), 1, true, true)...)
	ncallees = 1
	g.relay = append(stmts(rng.Intn(3), 1, true, true), gStmt{kind: gCall, callee: 0})
	g.relay = append(g.relay, stmts(rng.Intn(3), 1, true, true)...)
	ncallees = 2
	for m, n := 0, 1+rng.Intn(3); m < n; m++ {
		// A fixed skeleton guarantees every feature appears; random
		// statements surround it.
		loopBody := stmts(1+rng.Intn(3), 1, true, false)
		loopBody = append(loopBody, gStmt{kind: gCall, callee: 0}, gStmt{kind: gCall, callee: 1})
		for _, inst := range []ir.InstExpr{ir.Shared(rng.Intn(3)), ir.PerCPU(), ir.Param(rng.Intn(genParams))} {
			s := access(false)
			s.inst, s.write = inst, false
			loopBody = append(loopBody, s)
		}
		loopBody = append(loopBody, stmts(rng.Intn(3), 1, true, false)...)
		body := stmts(rng.Intn(4), 0, false, false)
		body = append(body,
			gStmt{kind: gLoop, count: 2 + rng.Int63n(4), body: loopBody},
			lock(ir.Shared(0), stmts(1+rng.Intn(2), 1, false, true)),
			lock(ir.Param(rng.Intn(genParams)), stmts(1+rng.Intn(2), 1, false, true)))
		body = append(body, stmts(rng.Intn(4), 0, false, false)...)
		g.mains = append(g.mains, body)
	}
	maxThreads := ncpu
	if maxThreads > 6 {
		maxThreads = 6
	}
	cpus := rng.Perm(ncpu)[:2+rng.Intn(maxThreads-1)]
	for _, cpu := range cpus {
		params := make([]int, genParams)
		for i := range params {
			params[i] = rng.Intn(8)
		}
		g.threads = append(g.threads, irtext.ThreadDecl{
			CPU: cpu, Proc: fmt.Sprintf("main%d", rng.Intn(len(g.mains))), Params: params, Iters: 1 + rng.Int63n(3),
		})
	}
	return g
}

// file builds the program and its harness. Entry procedures that no
// thread runs are still built: they mark lines as written all the same.
func (g *gProg) file() (*irtext.File, error) {
	p := ir.NewProgram(fmt.Sprintf("gen%d", g.seed))
	structs := make([]*ir.StructType, len(g.structs))
	arenas := make(map[string]int, len(g.structs))
	for k, fields := range g.structs {
		structs[k] = ir.NewStruct(fmt.Sprintf("S%d", k), fields...)
		p.AddStruct(structs[k])
		arenas[structs[k].Name] = g.counts[k]
	}
	p.AddRegion("shared", 2048, false)
	p.AddRegion("private", 1024, true)
	var emit func(b *ir.Builder, ss []gStmt)
	emit = func(b *ir.Builder, ss []gStmt) {
		for _, s := range ss {
			switch s.kind {
			case gAccess:
				if s.write {
					b.WriteI(structs[s.st], s.field, s.inst)
				} else {
					b.ReadI(structs[s.st], s.field, s.inst)
				}
			case gCompute:
				b.Compute(s.cycles)
			case gMem:
				acc := ir.Read
				if s.write {
					acc = ir.Write
				}
				switch s.pat {
				case 0:
					b.MemSweep(s.region, acc, 64)
				case 1:
					b.MemRandom(s.region, acc)
				default:
					b.MemAt(s.region, acc, 136)
				}
			case gIf:
				var els func(*ir.Builder)
				if len(s.els) > 0 {
					els = func(b *ir.Builder) { emit(b, s.els) }
				}
				b.IfElse(s.prob, func(b *ir.Builder) { emit(b, s.body) }, els)
			case gLoop:
				b.Loop(s.count, func(b *ir.Builder) { emit(b, s.body) })
			case gCall:
				b.Call(callees[s.callee])
			case gLock:
				b.Lock(structs[s.st], "lock", s.inst)
				emit(b, s.body)
				b.Unlock(structs[s.st], "lock", s.inst)
			}
		}
	}
	for i, body := range [][]gStmt{g.visit, g.relay} {
		b := p.NewProc(callees[i])
		emit(b, body)
		b.Done()
	}
	for m, body := range g.mains {
		b := p.NewProc(fmt.Sprintf("main%d", m))
		emit(b, body)
		b.Done()
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return &irtext.File{Prog: p, Arenas: arenas, Threads: g.threads}, nil
}

// diverges runs g on both interpreter paths in every engine mode and
// reports whether the Results differ in any, with the exact mode's fast
// and slow round counts.
func (g *gProg) diverges(cfg exec.Config) (bad bool, fastRounds, slowRounds int64, err error) {
	f, err := g.file()
	if err != nil {
		return false, 0, 0, err
	}
	for _, mode := range engineModes {
		cfg.Sampling = mode.sampling
		fast, fr, err := dslRun(f, cfg, false)
		if err != nil {
			return false, 0, 0, err
		}
		slow, sr, err := dslRun(f, cfg, true)
		if err != nil {
			return false, 0, 0, err
		}
		if mode.name == "exact" {
			fastRounds, slowRounds = fr, sr
		}
		bad = bad || !reflect.DeepEqual(fast, slow)
	}
	return bad, fastRounds, slowRounds, nil
}

// shrink greedily applies one-step reductions while the program still
// diverges (a reduction that no longer builds or runs is skipped),
// returning a locally minimal counterexample.
func (g *gProg) shrink(cfg exec.Config) *gProg {
	for progress := true; progress; {
		progress = false
		for _, cand := range g.smaller() {
			if bad, _, _, err := cand.diverges(cfg); err == nil && bad {
				g, progress = cand, true
				break
			}
		}
	}
	return g
}

// smaller lists the one-step reductions of g.
func (g *gProg) smaller() []*gProg {
	var out []*gProg
	if len(g.threads) > 1 {
		for i := range g.threads {
			c := *g
			c.threads = append(append([]irtext.ThreadDecl(nil), g.threads[:i]...), g.threads[i+1:]...)
			out = append(out, &c)
		}
	}
	for i, td := range g.threads {
		if td.Iters > 1 {
			c := *g
			c.threads = append([]irtext.ThreadDecl(nil), g.threads...)
			c.threads[i].Iters--
			out = append(out, &c)
		}
	}
	for _, v := range smallerStmts(g.visit) {
		c := *g
		c.visit = v
		out = append(out, &c)
	}
	for _, v := range smallerStmts(g.relay) {
		c := *g
		c.relay = v
		out = append(out, &c)
	}
	for m := range g.mains {
		for _, v := range smallerStmts(g.mains[m]) {
			c := *g
			c.mains = append([][]gStmt(nil), g.mains...)
			c.mains[m] = v
			out = append(out, &c)
		}
	}
	return out
}

// smallerStmts lists the one-step reductions of a statement list: drop a
// statement, splice a nested body in its place, lower a loop count (down
// to zero), or reduce inside a nested body.
func smallerStmts(ss []gStmt) [][]gStmt {
	var out [][]gStmt
	with := func(i int, s gStmt) []gStmt {
		c := append([]gStmt(nil), ss...)
		c[i] = s
		return c
	}
	splice := func(i int, body []gStmt) []gStmt {
		c := append(append([]gStmt(nil), ss[:i]...), body...)
		return append(c, ss[i+1:]...)
	}
	for i, s := range ss {
		out = append(out, splice(i, nil))
		if len(s.body) > 0 {
			out = append(out, splice(i, s.body))
		}
		if len(s.els) > 0 {
			out = append(out, splice(i, s.els))
		}
		if s.kind == gLoop && s.count > 0 {
			s2 := s
			s2.count--
			out = append(out, with(i, s2))
		}
		for _, b := range smallerStmts(s.body) {
			s2 := s
			s2.body = b
			out = append(out, with(i, s2))
		}
		for _, e := range smallerStmts(s.els) {
			s2 := s
			s2.els = e
			out = append(out, with(i, s2))
		}
	}
	return out
}

// TestRunAheadGenerated: generated programs give identical Results on the
// flat code, with read-hit run-ahead, and on the reference tree walker, in
// every engine mode. A divergence is shrunk and printed as a DSL program,
// ready to commit under testdata/runahead.
func TestRunAheadGenerated(t *testing.T) {
	for _, topo := range []*machine.Topology{machine.Bus4(), machine.Way16()} {
		cfg := exec.Config{Topo: topo, Cache: coherence.SmallCache(), Seed: runSeed}
		var fastRounds, slowRounds int64
		for seed := int64(1); seed <= genSeeds; seed++ {
			g := gen(seed, topo.NumCPUs())
			bad, fr, sr, err := g.diverges(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", topo.Name, seed, err)
			}
			fastRounds += fr
			slowRounds += sr
			if bad {
				f, err := g.shrink(cfg).file()
				if err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s seed %d: the fast path diverges from the reference; shrunk program:\n%s", topo.Name, seed, irtext.Format(f))
			}
		}
		t.Logf("%s: %d programs, %d rounds with run-ahead, %d without", topo.Name, genSeeds, fastRounds, slowRounds)
		if fastRounds >= slowRounds {
			t.Errorf("%s: run-ahead never fired on the generated programs", topo.Name)
		}
	}
}
