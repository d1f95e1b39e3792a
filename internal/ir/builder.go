package ir

import "fmt"

// Builder constructs a procedure's structured body with a fluent API.
// Workload definitions (internal/workload) and tests use it to write
// kernel-style code compactly:
//
//	b := prog.NewProc("vfs_lookup")
//	b.Lock(vnode, "v_lock", Param(0))
//	b.Read(vnode, "v_count", Param(0))
//	b.Loop(64, func(b *Builder) {
//		b.Read(dirent, "d_name", LoopVar())
//	})
//	b.Unlock(vnode, "v_lock", Param(0))
//	b.Done()
type Builder struct {
	proc  *Procedure
	stack []*[]Stmt // innermost statement list last
	done  bool
}

// NewProc starts building a procedure registered with the program.
func (p *Program) NewProc(name string) *Builder {
	p.mustMutable()
	pr := &Procedure{Name: name, program: p}
	p.addProc(pr)
	b := &Builder{proc: pr}
	b.stack = append(b.stack, &pr.Body)
	return b
}

func (b *Builder) emit(s Stmt) *Builder {
	if b.done {
		panic("ir: builder used after Done")
	}
	top := b.stack[len(b.stack)-1]
	*top = append(*top, s)
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
	return b.emit(&AccessStmt{Struct: st, Field: b.fieldIndex(st, field), Acc: Read, Inst: inst})
}

// Write emits a store to st.field on the given instance.
func (b *Builder) Write(st *StructType, field string, inst InstExpr) *Builder {
	return b.emit(&AccessStmt{Struct: st, Field: b.fieldIndex(st, field), Acc: Write, Inst: inst})
}

// ReadI and WriteI are index-based variants for generated code that loops
// over field indices.

// ReadI emits a load of field index fi.
func (b *Builder) ReadI(st *StructType, fi int, inst InstExpr) *Builder {
	b.checkIndex(st, fi)
	return b.emit(&AccessStmt{Struct: st, Field: fi, Acc: Read, Inst: inst})
}

// WriteI emits a store to field index fi.
func (b *Builder) WriteI(st *StructType, fi int, inst InstExpr) *Builder {
	b.checkIndex(st, fi)
	return b.emit(&AccessStmt{Struct: st, Field: fi, Acc: Write, Inst: inst})
}

func (b *Builder) checkIndex(st *StructType, fi int) {
	if fi < 0 || fi >= len(st.Fields) {
		panic(fmt.Sprintf("ir: struct %s: field index %d out of range", st.Name, fi))
	}
}

// Lock emits an acquire of the spinlock stored in st.field.
func (b *Builder) Lock(st *StructType, field string, inst InstExpr) *Builder {
	return b.emit(&LockStmt{Struct: st, Field: b.fieldIndex(st, field), Inst: inst})
}

// Unlock emits a release of the spinlock stored in st.field.
func (b *Builder) Unlock(st *StructType, field string, inst InstExpr) *Builder {
	return b.emit(&UnlockStmt{Struct: st, Field: b.fieldIndex(st, field), Inst: inst})
}

// MemSweep emits a sequential region access (streaming traffic) with the
// given stride, which Finalize requires to be at least 1.
func (b *Builder) MemSweep(region string, acc AccessKind, stride int64) *Builder {
	b.checkRegion(region)
	return b.emit(&MemStmt{Region: region, Acc: acc, Pattern: MemSeq, Stride: stride})
}

// MemAt emits an access to a fixed offset within a region, which
// Finalize requires to be non-negative.
func (b *Builder) MemAt(region string, acc AccessKind, offset int64) *Builder {
	b.checkRegion(region)
	return b.emit(&MemStmt{Region: region, Acc: acc, Pattern: MemFixed, Offset: offset})
}

// MemRandom emits an access to a pseudo-random offset within a region.
func (b *Builder) MemRandom(region string, acc AccessKind) *Builder {
	b.checkRegion(region)
	return b.emit(&MemStmt{Region: region, Acc: acc, Pattern: MemRand})
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
	return b.emit(&ComputeStmt{Cycles: cycles})
}

// Call emits a call to the named procedure (resolved at Finalize).
func (b *Builder) Call(callee string) *Builder {
	return b.emit(&CallStmt{Callee: callee})
}

// Spawn emits a fork of the named procedure as a child task with the
// given handle, CPU and parameter vector. Valid only at the top level of
// a procedure body (Finalize enforces the discipline).
func (b *Builder) Spawn(handle string, cpu int, callee string, params ...int) *Builder {
	return b.emit(&SpawnStmt{Handle: handle, CPU: cpu, Callee: callee, Params: params})
}

// Join emits a wait for the spawn named handle.
func (b *Builder) Join(handle string) *Builder {
	return b.emit(&JoinStmt{Handle: handle})
}

// Send emits a rendezvous send on the named channel.
func (b *Builder) Send(ch string) *Builder {
	return b.emit(&SendStmt{Chan: ch})
}

// Recv emits a rendezvous receive on the named channel.
func (b *Builder) Recv(ch string) *Builder {
	return b.emit(&RecvStmt{Chan: ch})
}

// Loop emits a counted loop; body statements are built inside fn.
func (b *Builder) Loop(count int64, fn func(*Builder)) *Builder {
	if count < 0 {
		panic("ir: negative loop count")
	}
	l := &LoopStmt{Count: count}
	b.emit(l)
	b.stack = append(b.stack, &l.Body)
	fn(b)
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// If emits a probabilistic branch taken with probability p.
func (b *Builder) If(p float64, then func(*Builder)) *Builder {
	return b.IfElse(p, then, nil)
}

// IfElse emits a probabilistic branch with both arms.
func (b *Builder) IfElse(p float64, then, els func(*Builder)) *Builder {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("ir: branch probability %v out of [0,1]", p))
	}
	s := &IfStmt{Prob: p}
	b.emit(s)
	b.stack = append(b.stack, &s.Then)
	then(b)
	b.stack = b.stack[:len(b.stack)-1]
	if els != nil {
		b.stack = append(b.stack, &s.Else)
		els(b)
		b.stack = b.stack[:len(b.stack)-1]
	}
	return b
}

// Done finishes the procedure body. Lowering happens at Program.Finalize.
func (b *Builder) Done() *Procedure {
	if len(b.stack) != 1 {
		panic("ir: unbalanced builder nesting")
	}
	b.done = true
	return b.proc
}
