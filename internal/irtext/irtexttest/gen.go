package irtexttest

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"structlayout/internal/ir"
	"structlayout/internal/irtext"
)

// Kind discriminates generated statements.
type Kind uint8

const (
	Access    Kind = iota // read or write Struct.Field through Inst
	Compute               // N cycles
	MemSweep              // sweep Name's region with stride N
	MemRandom             // access Name's region at a random offset
	MemAt                 // access Name's region at offset N
	If                    // Body with probability Prob, else Else
	Loop                  // Body, N times
	Call                  // call Callee
	Lock                  // lock Struct.Field through Inst, Body, unlock
	Spawn                 // fork Callee on CPU with Params under handle Name
	Join                  // wait for handle Name
	Send                  // rendezvous send on channel Name
	Recv                  // rendezvous receive on channel Name
)

// Stmt is one statement of a generated program, kept as a tree so that
// Shrink can drop it or splice its body in its place.
type Stmt struct {
	Kind          Kind
	Struct, Field int // indices into Program.Structs and its Fields
	Write         bool
	Inst          ir.InstExpr
	N             int64
	Prob          float64
	Callee, Name  string
	CPU           int
	Params        []int
	Body, Else    []Stmt
}

// Proc is one generated procedure.
type Proc struct {
	Name string
	Body []Stmt
}

// Program is a generated program with its run harness.
type Program struct {
	Name    string
	Structs []*ir.StructType
	Regions []ir.Region
	Procs   []Proc
	Arenas  map[string]int
	Threads []irtext.ThreadDecl
}

// File builds the program through ir.Builder and finalizes it.
func (g *Program) File() (*irtext.File, error) {
	p := ir.NewProgram(g.Name)
	for _, st := range g.Structs {
		p.AddStruct(st)
	}
	for _, r := range g.Regions {
		p.AddRegion(r.Name, r.Bytes, r.PerThread)
	}
	var emit func(b *ir.Builder, ss []Stmt)
	emit = func(b *ir.Builder, ss []Stmt) {
		for _, s := range ss {
			acc := ir.Read
			if s.Write {
				acc = ir.Write
			}
			switch s.Kind {
			case Access:
				if s.Write {
					b.WriteI(g.Structs[s.Struct], s.Field, s.Inst)
				} else {
					b.ReadI(g.Structs[s.Struct], s.Field, s.Inst)
				}
			case Compute:
				b.Compute(s.N)
			case MemSweep:
				b.MemSweep(s.Name, acc, s.N)
			case MemRandom:
				b.MemRandom(s.Name, acc)
			case MemAt:
				b.MemAt(s.Name, acc, s.N)
			case If:
				b.IfElse(s.Prob, func(b *ir.Builder) { emit(b, s.Body) }, func(b *ir.Builder) { emit(b, s.Else) })
			case Loop:
				b.Loop(s.N, func(b *ir.Builder) { emit(b, s.Body) })
			case Call:
				b.Call(s.Callee)
			case Lock:
				st := g.Structs[s.Struct]
				b.Lock(st, st.Fields[s.Field].Name, s.Inst)
				emit(b, s.Body)
				b.Unlock(st, st.Fields[s.Field].Name, s.Inst)
			case Spawn:
				b.Spawn(s.Name, s.CPU, s.Callee, s.Params...)
			case Join:
				b.Join(s.Name)
			case Send:
				b.Send(s.Name)
			case Recv:
				b.Recv(s.Name)
			}
		}
	}
	for _, pr := range g.Procs {
		b := p.NewProc(pr.Name)
		emit(b, pr.Body)
		b.Done()
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return &irtext.File{Prog: p, Arenas: maps.Clone(g.Arenas), Threads: g.Threads}, nil
}

// Shrink greedily applies one-step reductions to g while fails still
// holds of the reduced program, and returns a locally minimal program
// that fails. A reduction that no longer builds is skipped; fails must
// report false for a program it cannot run.
func Shrink(g *Program, fails func(*irtext.File) bool) *Program {
	for progress := true; progress; {
		progress = false
		for _, cand := range g.smaller() {
			if f, err := cand.File(); err == nil && fails(f) {
				g, progress = cand, true
				break
			}
		}
	}
	return g
}

// smaller lists the one-step reductions of g: drop a thread (one always
// stays), lower a thread's iterations, or reduce a procedure's body.
func (g *Program) smaller() []*Program {
	var out []*Program
	if len(g.Threads) > 1 {
		for i := range g.Threads {
			c := *g
			c.Threads = append(append([]irtext.ThreadDecl(nil), g.Threads[:i]...), g.Threads[i+1:]...)
			out = append(out, &c)
		}
	}
	for i, td := range g.Threads {
		if td.Iters > 1 {
			c := *g
			c.Threads = append([]irtext.ThreadDecl(nil), g.Threads...)
			c.Threads[i].Iters--
			out = append(out, &c)
		}
	}
	for i, pr := range g.Procs {
		for _, body := range smallerStmts(pr.Body) {
			c := *g
			c.Procs = append([]Proc(nil), g.Procs...)
			c.Procs[i].Body = body
			out = append(out, &c)
		}
	}
	return out
}

// smallerStmts lists the one-step reductions of a statement list: drop a
// statement, splice a nested body in its place, lower a loop count (down
// to zero), or reduce inside a nested body.
func smallerStmts(ss []Stmt) [][]Stmt {
	var out [][]Stmt
	with := func(i int, s Stmt) []Stmt {
		c := append([]Stmt(nil), ss...)
		c[i] = s
		return c
	}
	splice := func(i int, body []Stmt) []Stmt { return slices.Concat(ss[:i], body, ss[i+1:]) }
	for i, s := range ss {
		out = append(out, splice(i, nil))
		if len(s.Body) > 0 {
			out = append(out, splice(i, s.Body))
		}
		if len(s.Else) > 0 {
			out = append(out, splice(i, s.Else))
		}
		if s.Kind == Loop && s.N > 0 {
			s2 := s
			s2.N--
			out = append(out, with(i, s2))
		}
		for _, b := range smallerStmts(s.Body) {
			s2 := s
			s2.Body = b
			out = append(out, with(i, s2))
		}
		for _, e := range smallerStmts(s.Else) {
			s2 := s
			s2.Else = e
			out = append(out, with(i, s2))
		}
	}
	return out
}

// engineParams is how many parameters every Engine thread takes.
const engineParams = 2

// Engine draws seed's program for the execution engine's differential
// test on an ncpu-CPU machine. Struct 0 has a 64-byte field straddling
// its first line boundary; every struct's last field is a lock word,
// locked through Shared and Param instances so lock handoffs write on the
// waiter's CPU; accesses use all four instance kinds, LoopVar ones in a
// callee each entry procedure calls from a loop, directly and through a
// second callee; branches of probability 0 and 1 with empty arms, loops
// of zero trips and up, and shared and per-thread regions fill in the
// rest. Entry procedures no thread runs still mark lines as written.
func Engine(seed int64, ncpu int) *Program {
	rng := rand.New(rand.NewSource(seed))
	g := &Program{Name: fmt.Sprintf("gen%d", seed), Arenas: map[string]int{},
		Regions: []ir.Region{{Name: "shared", Bytes: 2048}, {Name: "private", Bytes: 1024, PerThread: true}}}
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
		g.Structs = append(g.Structs, ir.NewStruct(fmt.Sprintf("S%d", k), fields...))
		g.Arenas[g.Structs[k].Name] = 1 + rng.Intn(4)
	}
	// Per-struct write share: some structs are read-mostly, so their
	// lines stay unwritten or single-writer and reads can run ahead.
	wprob := make([]float64, len(g.Structs))
	for k := range wprob {
		wprob[k] = rng.Float64() * 0.5
	}
	access := func(loopVar bool) Stmt {
		k := rng.Intn(len(g.Structs))
		s := Stmt{Kind: Access, Struct: k, Field: rng.Intn(len(g.Structs[k].Fields)), Write: rng.Float64() < wprob[k]}
		switch n := rng.Intn(4); {
		case loopVar:
			s.Inst = ir.LoopVar()
		case n == 0:
			s.Inst = ir.Shared(rng.Intn(3))
		case n == 1:
			s.Inst = ir.PerCPU()
		default:
			s.Inst = ir.Param(rng.Intn(engineParams))
		}
		return s
	}
	lock := func(inst ir.InstExpr, body []Stmt) Stmt {
		k := rng.Intn(len(g.Structs))
		return Stmt{Kind: Lock, Struct: k, Field: len(g.Structs[k].Fields) - 1, Inst: inst, Body: body}
	}
	// stmts draws n statements; locks never nest, so no run deadlocks. A
	// call picks one of the first ncallees of callees: entry procedures
	// call either, relay calls visit, and visit calls nothing.
	callees := []string{"visit", "relay"}
	ncallees := 0
	var stmts func(n, depth int, inLoop, inLock bool) []Stmt
	stmts = func(n, depth int, inLoop, inLock bool) []Stmt {
		var out []Stmt
		for i := 0; i < n; i++ {
			leaf := depth >= 3
			switch c := rng.Intn(20); {
			case c < 8:
				out = append(out, access(inLoop && rng.Intn(4) == 0))
			case c < 10:
				out = append(out, Stmt{Kind: Compute, N: 1 + rng.Int63n(40)})
			case c < 12:
				s := Stmt{Kind: MemSweep, Name: "shared", N: 64}
				if rng.Intn(2) == 0 {
					s.Name = "private"
				}
				if pat := rng.Intn(3); pat == 1 {
					s.Kind, s.N = MemRandom, 0
				} else if pat == 2 {
					s.Kind, s.N = MemAt, 136
				}
				s.Write = rng.Intn(3) == 0
				out = append(out, s)
			case c < 14 && !leaf:
				prob := rng.Float64()
				switch rng.Intn(4) {
				case 0:
					prob = 0
				case 1:
					prob = 1
				}
				out = append(out, Stmt{Kind: If, Prob: prob,
					Body: stmts(rng.Intn(3), depth+1, inLoop, inLock),
					Else: stmts(rng.Intn(3), depth+1, inLoop, inLock)})
			case c < 16 && !leaf:
				out = append(out, Stmt{Kind: Loop, N: rng.Int63n(5),
					Body: stmts(1+rng.Intn(4), depth+1, true, inLock)})
			case c < 17 && inLoop && ncallees > 0:
				out = append(out, Stmt{Kind: Call, Callee: callees[rng.Intn(ncallees)]})
			case c < 19 && !inLock && !leaf:
				inst := ir.Shared(rng.Intn(2))
				if rng.Intn(2) == 0 {
					inst = ir.Param(rng.Intn(engineParams))
				}
				out = append(out, lock(inst, stmts(1+rng.Intn(3), depth+1, inLoop, true)))
			default:
				out = append(out, Stmt{Kind: Compute, N: 1 + rng.Int63n(10)})
			}
		}
		return out
	}
	visit := append(stmts(rng.Intn(3), 1, true, true), access(true))
	visit = append(visit, stmts(rng.Intn(3), 1, true, true)...)
	ncallees = 1
	relay := append(stmts(rng.Intn(3), 1, true, true), Stmt{Kind: Call, Callee: "visit"})
	relay = append(relay, stmts(rng.Intn(3), 1, true, true)...)
	ncallees = 2
	g.Procs = []Proc{{"visit", visit}, {"relay", relay}}
	nmains := 1 + rng.Intn(3)
	for m := 0; m < nmains; m++ {
		// A fixed skeleton guarantees every feature appears; random
		// statements surround it.
		loopBody := stmts(1+rng.Intn(3), 1, true, false)
		loopBody = append(loopBody, Stmt{Kind: Call, Callee: "visit"}, Stmt{Kind: Call, Callee: "relay"})
		for _, inst := range []ir.InstExpr{ir.Shared(rng.Intn(3)), ir.PerCPU(), ir.Param(rng.Intn(engineParams))} {
			s := access(false)
			s.Inst, s.Write = inst, false
			loopBody = append(loopBody, s)
		}
		loopBody = append(loopBody, stmts(rng.Intn(3), 1, true, false)...)
		body := stmts(rng.Intn(4), 0, false, false)
		body = append(body,
			Stmt{Kind: Loop, N: 2 + rng.Int63n(4), Body: loopBody},
			lock(ir.Shared(0), stmts(1+rng.Intn(2), 1, false, true)),
			lock(ir.Param(rng.Intn(engineParams)), stmts(1+rng.Intn(2), 1, false, true)))
		body = append(body, stmts(rng.Intn(4), 0, false, false)...)
		g.Procs = append(g.Procs, Proc{fmt.Sprintf("main%d", m), body})
	}
	maxThreads := min(ncpu, 6)
	for _, cpu := range rng.Perm(ncpu)[:2+rng.Intn(maxThreads-1)] {
		params := make([]int, engineParams)
		for i := range params {
			params[i] = rng.Intn(8)
		}
		g.Threads = append(g.Threads, irtext.ThreadDecl{
			CPU: cpu, Proc: fmt.Sprintf("main%d", rng.Intn(nmains)), Params: params, Iters: 1 + rng.Int63n(3),
		})
	}
	return g
}

// ForkJoin draws seed's program for the static MHP relation's soundness
// test: a parent interleaving writes, spawns, joins and channel receives
// over a few leaf workers (some of which send), plus an optional flat
// auxiliary thread. The sync discipline holds by construction; join
// coverage, channel pairing, iterations and deadlocks are left to chance,
// which the soundness assertion must survive. A loop bound that draws is
// drawn again at each test of its condition.
func ForkJoin(seed int64) *Program {
	r := rand.New(rand.NewSource(seed))
	g := &Program{Name: "gen", Structs: []*ir.StructType{ir.NewStruct("S", ir.I64("f0"), ir.I64("f1"), ir.I64("f2"))},
		Arenas: map[string]int{"S": 2}}
	write := func() Stmt {
		s := Stmt{Kind: Access, Field: r.Intn(3), Write: true}
		s.Inst = []ir.InstExpr{ir.Shared(0), ir.Shared(1), ir.PerCPU(), ir.Param(0)}[r.Intn(4)]
		return s
	}
	writes := func() (body []Stmt) {
		for j := 0; j < 1+r.Intn(2); j++ {
			body = append(body, write())
		}
		return body
	}
	nw := 1 + r.Intn(3)
	sends := make([]string, nw) // worker i's channel, if it sends
	for i := 0; i < nw; i++ {
		body := writes()
		if r.Intn(3) == 0 {
			sends[i] = fmt.Sprintf("c%d", i)
			body = append(body, Stmt{Kind: Send, Name: sends[i]})
			if r.Intn(2) == 0 {
				body = append(body, write())
			}
		}
		g.Procs = append(g.Procs, Proc{fmt.Sprintf("w%d", i), body})
	}
	var parent []Stmt
	spawned := 0
	joined, recvd := make([]bool, nw), make([]bool, nw)
	join := func(i int) {
		parent = append(parent, Stmt{Kind: Join, Name: fmt.Sprintf("h%d", i)})
		joined[i] = true
	}
	for a := 0; a < 4+r.Intn(5); a++ {
		switch r.Intn(4) {
		case 0:
			parent = append(parent, write())
		case 1:
			if spawned < nw {
				s := Stmt{Kind: Spawn, Name: fmt.Sprintf("h%d", spawned), CPU: 1 + spawned, Callee: fmt.Sprintf("w%d", spawned)}
				if r.Intn(3) == 0 {
					s.Params = []int{r.Intn(3)}
				}
				parent = append(parent, s)
				spawned++
			}
		case 2:
			for i := 0; i < spawned; i++ {
				if !joined[i] {
					join(i)
					break
				}
			}
		case 3:
			for i := 0; i < spawned; i++ {
				if sends[i] != "" && !recvd[i] {
					parent = append(parent, Stmt{Kind: Recv, Name: sends[i]})
					recvd[i] = true
					break
				}
			}
		}
	}
	for i := 0; i < spawned; i++ {
		if !joined[i] && r.Intn(2) == 0 {
			join(i)
		}
	}
	g.Procs = append(g.Procs, Proc{"parent", parent})
	aux := r.Intn(2) == 0
	if aux {
		g.Procs = append(g.Procs, Proc{"aux", writes()})
	}
	g.Threads = []irtext.ThreadDecl{{CPU: 0, Proc: "parent", Iters: int64(1 + r.Intn(2))}}
	if aux {
		g.Threads = append(g.Threads, irtext.ThreadDecl{CPU: 5, Proc: "aux", Iters: int64(1 + r.Intn(2))})
	}
	return g
}
