// Package ir provides the compiler intermediate representation substrate used
// by the structure-layout tool chain.
//
// The paper's implementation (CGO 2007, §4) sits inside the HP-UX compiler's
// inter-procedural optimizer SYZYGY: the front end recognizes loops, records
// field accesses per basic block, and attaches source-line information that
// the sampling pipeline later maps back to code. This package reproduces the
// facts that pipeline consumes:
//
//   - record (struct) types with C-like field sizes and alignments,
//   - procedures built from a structured AST (straight-line code, counted
//     loops, probabilistic branches, calls, lock operations),
//   - a lowering pass that produces basic blocks with one synthetic source
//     line each, the loop nest, and the structured execution tree the
//     interpreter walks (loops come straight from the structured AST, so
//     no control-flow graph is built or searched),
//   - per-instruction field-access records (read/write),
//   - one call order (Program.CallOrder): every procedure once, callers
//     before callees. The interprocedural passes (internal/locks,
//     internal/staticshare) propagate their facts in it, so, as in
//     SYZYGY, the call graph is walked once for all of them.
//
// The execution engine (internal/exec) interprets the same IR, so profile
// counts, PMU-style samples and the field-mapping file all refer to one
// consistent program representation.
package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// AccessKind distinguishes reads from writes. The distinction matters twice
// in the paper: CycleGain treats a store target as worthless (store misses
// do not stall the pipeline, §2), and CycleLoss requires at least one of the
// two concurrent accesses to be a write (§3.2).
type AccessKind uint8

const (
	// Read is a load of a field or memory location.
	Read AccessKind = iota
	// Write is a store to a field or memory location.
	Write
)

// String returns "R" for reads and "W" for writes.
func (k AccessKind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Field is one member of a record type. Size and Align are in bytes and
// follow C layout rules; the concrete offset of a field is a property of a
// layout (internal/layout), not of the type, because the whole point of the
// tool is to re-derive offsets.
type Field struct {
	Name  string
	Size  int
	Align int
}

// StructType is a record type whose field order the tool may permute.
// Fields are identified by their index into Fields; that index is stable
// across layouts (layouts map field index to offset).
type StructType struct {
	Name   string
	Fields []Field
}

// NewStruct returns a struct type with the given fields. It panics on
// malformed field descriptors (zero sizes, non-power-of-two alignment,
// duplicate names) because struct definitions are program text, not input
// data.
func NewStruct(name string, fields ...Field) *StructType {
	st := &StructType{Name: name, Fields: fields}
	seen := make(map[string]bool, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			panic(fmt.Sprintf("ir: struct %s: field %d has empty name", name, i))
		}
		if f.Size <= 0 {
			panic(fmt.Sprintf("ir: struct %s: field %s has size %d", name, f.Name, f.Size))
		}
		if f.Align <= 0 || f.Align&(f.Align-1) != 0 {
			panic(fmt.Sprintf("ir: struct %s: field %s has alignment %d", name, f.Name, f.Align))
		}
		if seen[f.Name] {
			panic(fmt.Sprintf("ir: struct %s: duplicate field %s", name, f.Name))
		}
		seen[f.Name] = true
	}
	return st
}

// NumFields returns the number of fields in the struct.
func (s *StructType) NumFields() int { return len(s.Fields) }

// FieldIndex returns the index of the named field, or -1 if absent.
func (s *StructType) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// MinBytes returns the sum of all field sizes: the size of the densest
// possible packing, ignoring alignment padding. Useful as a lower bound when
// sizing cache-line budgets.
func (s *StructType) MinBytes() int {
	n := 0
	for _, f := range s.Fields {
		n += f.Size
	}
	return n
}

// MaxAlign returns the largest field alignment in the struct.
func (s *StructType) MaxAlign() int {
	a := 1
	for _, f := range s.Fields {
		if f.Align > a {
			a = f.Align
		}
	}
	return a
}

// String returns the struct name.
func (s *StructType) String() string { return s.Name }

// Dump renders the struct type in a C-like syntax, fields in declaration
// order, for reports and golden tests.
func (s *StructType) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s {\n", s.Name)
	for _, f := range s.Fields {
		fmt.Fprintf(&b, "\t%-24s // size=%d align=%d\n", f.Name+";", f.Size, f.Align)
	}
	b.WriteString("}\n")
	return b.String()
}

// Common field constructors for C scalar types, so workload definitions read
// like the kernel headers they imitate.

// I8 declares a 1-byte signed integer field.
func I8(name string) Field { return Field{Name: name, Size: 1, Align: 1} }

// I16 declares a 2-byte integer field.
func I16(name string) Field { return Field{Name: name, Size: 2, Align: 2} }

// I32 declares a 4-byte integer field.
func I32(name string) Field { return Field{Name: name, Size: 4, Align: 4} }

// I64 declares an 8-byte integer field.
func I64(name string) Field { return Field{Name: name, Size: 8, Align: 8} }

// Ptr declares an 8-byte pointer field (the paper's machines are 64-bit).
func Ptr(name string) Field { return Field{Name: name, Size: 8, Align: 8} }

// Pad declares an explicitly named padding/reserved field of n bytes.
func Pad(name string, n int) Field { return Field{Name: name, Size: n, Align: 1} }

// Arr declares an embedded array field of n elements of elemSize bytes.
func Arr(name string, n, elemSize, align int) Field {
	return Field{Name: name, Size: n * elemSize, Align: align}
}

// SourceLine identifies a line of (synthetic) source code. The lowering pass
// assigns one line per basic block; sampling and the field-mapping file key
// on these, mirroring the paper's IP-to-source correlation step (§4.3).
type SourceLine struct {
	File string
	Line int
}

// String renders file:line.
func (l SourceLine) String() string { return fmt.Sprintf("%s:%d", l.File, l.Line) }

// Less orders source lines by file, then line, for deterministic reports.
func (l SourceLine) Less(o SourceLine) bool {
	if l.File != o.File {
		return l.File < o.File
	}
	return l.Line < o.Line
}

// Program is a whole multithreaded program: record types, memory regions,
// and procedures. Programs are immutable once built (Finalize freezes them).
type Program struct {
	Name    string
	Structs []*StructType
	Regions []*Region
	Procs   []*Procedure

	structByName map[string]*StructType
	procByName   map[string]*Procedure
	regionByName map[string]*Region
	blocks       []*BasicBlock // all blocks, indexed by global BlockID
	loops        []*Loop       // all loops, indexed by global loop ID
	callOrder    []*Procedure  // callers before callees, set by Finalize
	finalized    bool
}

// Region is a non-record memory area used to model the rest of the
// program's memory traffic: private scratch space, shared tables, big
// streaming buffers. Regions are what make MemoryDistance (§2) real in the
// simulator: a loop sweeping a large region evicts cached struct lines.
type Region struct {
	Name  string
	Bytes int64
	// PerThread gives each thread its own copy of the region (stack-like or
	// per-CPU data); otherwise the region is shared by all threads.
	PerThread bool
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{
		Name:         name,
		structByName: make(map[string]*StructType),
		procByName:   make(map[string]*Procedure),
		regionByName: make(map[string]*Region),
	}
}

// AddStruct registers a record type with the program.
func (p *Program) AddStruct(s *StructType) {
	p.mustMutable()
	if _, dup := p.structByName[s.Name]; dup {
		panic("ir: duplicate struct " + s.Name)
	}
	p.structByName[s.Name] = s
	p.Structs = append(p.Structs, s)
}

// AddRegion registers a memory region with the program.
func (p *Program) AddRegion(name string, bytes int64, perThread bool) *Region {
	p.mustMutable()
	if _, dup := p.regionByName[name]; dup {
		panic("ir: duplicate region " + name)
	}
	r := &Region{Name: name, Bytes: bytes, PerThread: perThread}
	p.regionByName[name] = r
	p.Regions = append(p.Regions, r)
	return r
}

// Struct returns the named struct type, or nil.
func (p *Program) Struct(name string) *StructType { return p.structByName[name] }

// Proc returns the named procedure, or nil.
func (p *Program) Proc(name string) *Procedure { return p.procByName[name] }

// Region returns the named region, or nil.
func (p *Program) Region(name string) *Region { return p.regionByName[name] }

// Blocks returns all basic blocks in the program indexed by global BlockID.
// Only valid after Finalize.
func (p *Program) Blocks() []*BasicBlock { return p.blocks }

// NumBlocks returns the number of basic blocks in the finalized program.
func (p *Program) NumBlocks() int { return len(p.blocks) }

// Block returns the block with the given global ID.
func (p *Program) Block(id BlockID) *BasicBlock { return p.blocks[id] }

// NumLoops returns the number of loops in the finalized program.
func (p *Program) NumLoops() int { return len(p.loops) }

// CallOrder returns every procedure once, callers before callees: the
// order the interprocedural passes propagate facts down the call graph
// in. It is nil until Finalize accepts the program.
func (p *Program) CallOrder() []*Procedure { return p.callOrder }

func (p *Program) addProc(pr *Procedure) {
	p.mustMutable()
	if _, dup := p.procByName[pr.Name]; dup {
		panic("ir: duplicate procedure " + pr.Name)
	}
	p.procByName[pr.Name] = pr
	p.Procs = append(p.Procs, pr)
}

func (p *Program) mustMutable() {
	if p.finalized {
		panic("ir: program already finalized")
	}
}

// Finalize lowers every procedure to its blocks, loop nest and execution
// tree, assigns global block IDs and source lines, lists each block's
// field-touching instructions for FieldInstrs, rejects programs the
// interpreter cannot run (misplaced sync statements, empty loop bodies,
// calls or spawns of undefined procedures, negative shared or parameter
// instances, region accesses at a negative offset or sweeping with a
// stride below 1, and recursion), and orders the procedures
// callers-first for CallOrder. After Finalize the program is immutable.
func (p *Program) Finalize() error {
	if p.finalized {
		return nil
	}
	if err := p.checkSyncStmts(); err != nil {
		return err
	}
	// Deterministic order: procedures in registration order.
	nextLine := 1
	for _, pr := range p.Procs {
		if err := pr.lower(&nextLine); err != nil {
			return fmt.Errorf("ir: lowering %s: %w", pr.Name, err)
		}
		for _, b := range pr.Blocks {
			b.Global = BlockID(len(p.blocks))
			b.fieldInstrs = fieldInstrsOf(b.Instrs)
			p.blocks = append(p.blocks, b)
		}
		for _, l := range pr.Loops {
			l.Global = len(p.loops)
			p.loops = append(p.loops, l)
		}
	}
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall {
					if p.procByName[in.Callee] == nil {
						return fmt.Errorf("ir: %s calls undefined procedure %q", pr.Name, in.Callee)
					}
				}
				if in.Op == OpSpawn {
					if p.procByName[in.Callee] == nil {
						return fmt.Errorf("ir: %s spawns undefined procedure %q", pr.Name, in.Callee)
					}
				}
				if k := in.Inst.Kind; (k == InstShared || k == InstParam) && in.Inst.Index < 0 && in.Struct != nil {
					return fmt.Errorf("ir: %s accesses %s.%s at negative instance %s", pr.Name, in.Struct.Name, in.Struct.Fields[in.Field].Name, in.Inst)
				}
				if in.Op == OpMem && in.Pattern == MemFixed && in.Offset < 0 {
					return fmt.Errorf("ir: %s accesses region %s at negative offset %d", pr.Name, in.Region, in.Offset)
				}
				if in.Op == OpMem && in.Pattern == MemSeq && in.Stride <= 0 {
					return fmt.Errorf("ir: %s sweeps region %s with non-positive stride %d", pr.Name, in.Region, in.Stride)
				}
			}
		}
	}
	if err := p.checkCallGraph(); err != nil {
		return err
	}
	p.callOrder = p.orderCalls()
	p.finalized = true
	return nil
}

// checkSyncStmts enforces the structural discipline of the fork/join
// skeleton before lowering (on the builder AST, where top-level-ness is
// still visible):
//
//   - sync statements (spawn/join/send/recv) appear only at the top level
//     of a procedure body — never inside a loop or branch, which would
//     make the number of fork/join events per execution data-dependent;
//   - spawn handles are unique per procedure, each join names an earlier
//     spawn in the same body, and a handle is joined at most once;
//   - a procedure containing sync statements is a task entry and must
//     never be the target of a call (from anywhere).
//
// Together with the acyclicity check in checkCallGraph (which also walks
// spawn edges) this keeps the task graph a statically known
// series-parallel DAG — the property the happens-before analysis and the
// exhaustive interleaving harness both rely on.
func (p *Program) checkSyncStmts() error {
	isSync := func(s Stmt) bool {
		switch s.(type) {
		case *SpawnStmt, *JoinStmt, *SendStmt, *RecvStmt:
			return true
		}
		return false
	}
	var nestedSync func(stmts []Stmt) Stmt
	nestedSync = func(stmts []Stmt) Stmt {
		for _, s := range stmts {
			if isSync(s) {
				return s
			}
			switch s := s.(type) {
			case *LoopStmt:
				if bad := nestedSync(s.Body); bad != nil {
					return bad
				}
			case *IfStmt:
				if bad := nestedSync(s.Then); bad != nil {
					return bad
				}
				if bad := nestedSync(s.Else); bad != nil {
					return bad
				}
			}
		}
		return nil
	}
	syncProcs := make(map[string]bool)
	for _, pr := range p.Procs {
		spawned := make(map[string]bool) // handle -> declared
		joined := make(map[string]bool)
		hasSync := false
		for _, s := range pr.Body {
			switch s := s.(type) {
			case *SpawnStmt:
				hasSync = true
				if s.Handle == "" {
					return fmt.Errorf("ir: %s: spawn with empty handle", pr.Name)
				}
				if spawned[s.Handle] {
					return fmt.Errorf("ir: %s: duplicate spawn handle %q", pr.Name, s.Handle)
				}
				spawned[s.Handle] = true
			case *JoinStmt:
				hasSync = true
				if !spawned[s.Handle] {
					return fmt.Errorf("ir: %s: join %q does not follow a spawn of that handle", pr.Name, s.Handle)
				}
				if joined[s.Handle] {
					return fmt.Errorf("ir: %s: handle %q joined twice", pr.Name, s.Handle)
				}
				joined[s.Handle] = true
			case *SendStmt, *RecvStmt:
				hasSync = true
			case *LoopStmt:
				if bad := nestedSync(s.Body); bad != nil {
					return fmt.Errorf("ir: %s: sync statement %T nested inside a loop (sync is top-level only)", pr.Name, bad)
				}
			case *IfStmt:
				if bad := nestedSync(append(append([]Stmt{}, s.Then...), s.Else...)); bad != nil {
					return fmt.Errorf("ir: %s: sync statement %T nested inside a branch (sync is top-level only)", pr.Name, bad)
				}
			}
		}
		if hasSync {
			syncProcs[pr.Name] = true
		}
	}
	if len(syncProcs) == 0 {
		return nil
	}
	var calledSync func(pr *Procedure, stmts []Stmt) error
	calledSync = func(pr *Procedure, stmts []Stmt) error {
		for _, s := range stmts {
			switch s := s.(type) {
			case *CallStmt:
				if syncProcs[s.Callee] {
					return fmt.Errorf("ir: %s calls %s, which contains sync statements (task entries must not be called)", pr.Name, s.Callee)
				}
			case *LoopStmt:
				if err := calledSync(pr, s.Body); err != nil {
					return err
				}
			case *IfStmt:
				if err := calledSync(pr, s.Then); err != nil {
					return err
				}
				if err := calledSync(pr, s.Else); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, pr := range p.Procs {
		if err := calledSync(pr, pr.Body); err != nil {
			return err
		}
	}
	return nil
}

// checkCallGraph rejects recursion (direct or mutual), traversing call
// and spawn edges alike: the interpreter would not terminate on
// recursion, and a task that (transitively) spawns its own entry
// procedure would make the fork/join skeleton infinite.
func (p *Program) checkCallGraph() error {
	const (
		white = iota
		grey
		black
	)
	color := make(map[string]int, len(p.Procs))
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch color[name] {
		case grey:
			return fmt.Errorf("ir: recursive call cycle: %v -> %s", path, name)
		case black:
			return nil
		}
		color[name] = grey
		pr := p.procByName[name]
		for _, b := range pr.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall || in.Op == OpSpawn {
					if err := visit(in.Callee, append(path, name)); err != nil {
						return err
					}
				}
			}
		}
		color[name] = black
		return nil
	}
	for _, pr := range p.Procs {
		if err := visit(pr.Name, nil); err != nil {
			return err
		}
	}
	return nil
}

// orderCalls returns the reverse postorder of a depth-first walk over
// call edges that starts from procedures in registration order and
// visits each procedure's callees in registration order. checkCallGraph
// has rejected recursion, so every call edge points forward in it.
func (p *Program) orderCalls() []*Procedure {
	index := make(map[string]int, len(p.Procs))
	for i, pr := range p.Procs {
		index[pr.Name] = i
	}
	visited := make([]bool, len(p.Procs))
	post := make([]*Procedure, 0, len(p.Procs))
	var visit func(i int)
	visit = func(i int) {
		visited[i] = true
		var callees []int
		for _, b := range p.Procs[i].Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall {
					callees = append(callees, index[in.Callee])
				}
			}
		}
		sort.Ints(callees)
		for _, j := range callees {
			if !visited[j] {
				visit(j)
			}
		}
		post = append(post, p.Procs[i])
	}
	for i := range p.Procs {
		if !visited[i] {
			visit(i)
		}
	}
	slices.Reverse(post)
	return post
}

// MustFinalize is Finalize that panics on error, for statically known-good
// programs built in tests and workload definitions.
func (p *Program) MustFinalize() *Program {
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

// LineTable returns a map from source line to the basic block it belongs to.
// This is the inverse of the per-block line assignment and stands in for the
// binary's source-correlation tables that the paper's external script uses.
func (p *Program) LineTable() map[SourceLine]*BasicBlock {
	t := make(map[SourceLine]*BasicBlock, len(p.blocks))
	for _, b := range p.blocks {
		t[b.Line] = b
	}
	return t
}

// StructsSorted returns the program's structs sorted by name, for stable
// iteration in reports.
func (p *Program) StructsSorted() []*StructType {
	out := append([]*StructType(nil), p.Structs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
