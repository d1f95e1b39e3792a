package ir

import "fmt"

// Builder constructs a procedure's blocks, loop nest and execution tree
// with a fluent API. Workload definitions (internal/workload) and tests
// use it to write kernel-style code compactly:
//
//	b := prog.NewProc("vfs_lookup")
//	b.Lock(vnode, "v_lock", Param(0))
//	b.Read(vnode, "v_count", Param(0))
//	b.Loop(64, func(b *Builder) {
//		b.Read(dirent, "d_name", LoopVar())
//	})
//	b.Unlock(vnode, "v_lock", Param(0))
//	b.Done()
//
// Each statement appends one instruction to the open straight-line block,
// opening a block when a control statement closed the last one; a sync
// statement gets a block of its own. Loop and IfElse create the
// synthetic header, condition and join blocks and the tree nodes as they
// go, so blocks are numbered in the order a preorder walk of the tree
// meets them. Program.Finalize adds the exit block and assigns source
// lines and global IDs.
type Builder struct {
	proc   *Procedure
	frames []frame // node lists under construction, innermost last
	done   bool
}

// frame is one node list under construction: the procedure's tree, a
// loop body or a branch arm.
type frame struct {
	nodes *[]ExecNode
	loop  *Loop       // the innermost enclosing loop, nil outside loops
	open  *BasicBlock // the block taking instructions; nil after a control statement
}

// NewProc starts building a procedure registered with the program.
func (p *Program) NewProc(name string) *Builder {
	p.mustMutable()
	pr := &Procedure{Name: name, program: p}
	p.addProc(pr)
	pr.Tree = []ExecNode{&ExecBlock{Block: pr.newBlock(nil, true)}} // entry
	return &Builder{proc: pr, frames: []frame{{nodes: &pr.Tree}}}
}

// add appends n to the frame's node list and closes its open block.
func (f *frame) add(n ExecNode) {
	*f.nodes = append(*f.nodes, n)
	f.open = nil
}

// live returns the innermost frame of a builder that is not Done, on a
// program Finalize has not frozen: a statement emitted after Finalize
// would land in blocks whose IDs, lines and field lists are already set.
func (b *Builder) live() *frame {
	if b.done {
		panic("ir: builder used after Done")
	}
	b.proc.program.mustMutable()
	return &b.frames[len(b.frames)-1]
}

// block creates a block in the innermost frame's loop.
func (b *Builder) block(synthetic bool) *BasicBlock {
	return b.proc.newBlock(b.frames[len(b.frames)-1].loop, synthetic)
}

// nest builds fn's statements into the node list at nodes, inside loop.
func (b *Builder) nest(nodes *[]ExecNode, loop *Loop, fn func(*Builder)) {
	b.frames = append(b.frames, frame{nodes: nodes, loop: loop})
	fn(b)
	b.frames = b.frames[:len(b.frames)-1]
}

// emit appends in to the open straight-line block, opening one if a
// control statement closed the last. A sync instruction
// (spawn/join/send/recv) gets a block of its own, which gives the
// happens-before layer a crisp boundary: every other block of the
// procedure lies entirely before or entirely after each synchronization
// point.
func (b *Builder) emit(in Instr) *Builder {
	f := b.live()
	sync := syncKeyword(in.Op) != ""
	if f.open == nil || sync {
		f.open = b.block(false)
		*f.nodes = append(*f.nodes, &ExecBlock{Block: f.open})
	}
	f.open.Instrs = append(f.open.Instrs, in)
	if sync {
		f.open = nil
	}
	return b
}

func (b *Builder) fieldIndex(st *StructType, field string) int {
	i := st.FieldIndex(field)
	if i < 0 {
		panic(fmt.Sprintf("ir: struct %s has no field %q", st.Name, field))
	}
	return i
}

// Read emits a load of st.field on the given instance.
func (b *Builder) Read(st *StructType, field string, inst InstExpr) *Builder {
	return b.emit(Instr{Op: OpField, Struct: st, Field: b.fieldIndex(st, field), Acc: Read, Inst: inst})
}

// Write emits a store to st.field on the given instance.
func (b *Builder) Write(st *StructType, field string, inst InstExpr) *Builder {
	return b.emit(Instr{Op: OpField, Struct: st, Field: b.fieldIndex(st, field), Acc: Write, Inst: inst})
}

// ReadI and WriteI are index-based variants for generated code that loops
// over field indices.

// ReadI emits a load of field index fi.
func (b *Builder) ReadI(st *StructType, fi int, inst InstExpr) *Builder {
	b.checkIndex(st, fi)
	return b.emit(Instr{Op: OpField, Struct: st, Field: fi, Acc: Read, Inst: inst})
}

// WriteI emits a store to field index fi.
func (b *Builder) WriteI(st *StructType, fi int, inst InstExpr) *Builder {
	b.checkIndex(st, fi)
	return b.emit(Instr{Op: OpField, Struct: st, Field: fi, Acc: Write, Inst: inst})
}

func (b *Builder) checkIndex(st *StructType, fi int) {
	if fi < 0 || fi >= len(st.Fields) {
		panic(fmt.Sprintf("ir: struct %s: field index %d out of range", st.Name, fi))
	}
}

// Lock emits an acquire of the spinlock stored in st.field.
func (b *Builder) Lock(st *StructType, field string, inst InstExpr) *Builder {
	return b.emit(Instr{Op: OpLock, Struct: st, Field: b.fieldIndex(st, field), Acc: Write, Inst: inst})
}

// Unlock emits a release of the spinlock stored in st.field.
func (b *Builder) Unlock(st *StructType, field string, inst InstExpr) *Builder {
	return b.emit(Instr{Op: OpUnlock, Struct: st, Field: b.fieldIndex(st, field), Acc: Write, Inst: inst})
}

// MemSweep emits a sequential region access (streaming traffic) with the
// given stride, which Finalize requires to be at least 1.
func (b *Builder) MemSweep(region string, acc AccessKind, stride int64) *Builder {
	b.checkRegion(region)
	return b.emit(Instr{Op: OpMem, Acc: acc, Region: region, Pattern: MemSeq, Stride: stride})
}

// MemAt emits an access to a fixed offset within a region, which
// Finalize requires to be non-negative.
func (b *Builder) MemAt(region string, acc AccessKind, offset int64) *Builder {
	b.checkRegion(region)
	return b.emit(Instr{Op: OpMem, Acc: acc, Region: region, Pattern: MemFixed, Offset: offset})
}

// MemRandom emits an access to a pseudo-random offset within a region.
func (b *Builder) MemRandom(region string, acc AccessKind) *Builder {
	b.checkRegion(region)
	return b.emit(Instr{Op: OpMem, Acc: acc, Region: region, Pattern: MemRand})
}

func (b *Builder) checkRegion(region string) {
	if b.proc.program.Region(region) == nil {
		panic(fmt.Sprintf("ir: undefined region %q", region))
	}
}

// Compute emits a pure-compute delay of the given cycles.
func (b *Builder) Compute(cycles int64) *Builder {
	if cycles <= 0 {
		panic("ir: Compute requires positive cycles")
	}
	return b.emit(Instr{Op: OpCompute, Cycles: cycles})
}

// Call emits a call to the named procedure (resolved at Finalize).
func (b *Builder) Call(callee string) *Builder {
	return b.emit(Instr{Op: OpCall, Callee: callee})
}

// Spawn emits a fork of the named procedure as a child task with the
// given handle, CPU and parameter vector, so a later Join of the handle
// can wait for it. Sync statements (Spawn, Join, Send, Recv) belong at
// the top level of a procedure body, and a procedure containing any of
// them must never be called: Finalize enforces both, which keeps the
// fork/join skeleton series-parallel and statically enumerable.
func (b *Builder) Spawn(handle string, cpu int, callee string, params ...int) *Builder {
	return b.emit(Instr{Op: OpSpawn, Handle: handle, Callee: callee, SpawnCPU: cpu, SpawnParams: params})
}

// Join emits a wait for the spawn named handle.
func (b *Builder) Join(handle string) *Builder {
	return b.emit(Instr{Op: OpJoin, Handle: handle})
}

// Send emits a rendezvous send on the named channel.
func (b *Builder) Send(ch string) *Builder {
	return b.emit(Instr{Op: OpSend, Chan: ch})
}

// Recv emits a rendezvous receive on the named channel.
func (b *Builder) Recv(ch string) *Builder {
	return b.emit(Instr{Op: OpRecv, Chan: ch})
}

// Loop emits a counted loop; body statements are built inside fn, which
// must emit at least one (Finalize rejects an empty loop body). count is
// the static trip count used both by the interpreter and, for
// profile-free analysis, as the static frequency estimate.
func (b *Builder) Loop(count int64, fn func(*Builder)) *Builder {
	if count < 0 {
		panic("ir: negative loop count")
	}
	pr := b.proc
	l := &Loop{Index: len(pr.Loops), Proc: pr, TripCount: count}
	n := &ExecLoop{Loop: l, Count: count}
	b.live().add(n)
	pr.Loops = append(pr.Loops, l)
	l.Header = pr.newBlock(l, true)
	b.nest(&n.Body, l, fn)
	if len(n.Body) == 0 {
		pr.emptyLoop = true
	}
	return b
}

// If emits a probabilistic branch taken with probability p.
func (b *Builder) If(p float64, then func(*Builder)) *Builder {
	return b.IfElse(p, then, nil)
}

// IfElse emits a probabilistic branch with both arms. The interpreter
// draws against p from the thread's seeded RNG, keeping runs
// reproducible.
func (b *Builder) IfElse(p float64, then, els func(*Builder)) *Builder {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("ir: branch probability %v out of [0,1]", p))
	}
	n := &ExecIf{Prob: p}
	f := b.live()
	f.add(n)
	loop := f.loop
	n.Cond = b.block(true)
	b.nest(&n.Then, loop, then)
	if els != nil {
		b.nest(&n.Else, loop, els)
	}
	n.Join = b.block(true)
	return b
}

// Done finishes the procedure body; Program.Finalize adds its exit block.
func (b *Builder) Done() *Procedure {
	if len(b.frames) != 1 {
		panic("ir: unbalanced builder nesting")
	}
	b.done = true
	return b.proc
}
