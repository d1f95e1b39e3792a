package gofront

import (
	"go/ast"
	"go/token"
	"go/types"

	"structlayout/internal/ir"
)

// lowerFunc lowers one function body into an IR procedure. Deferred
// mutex releases are emitted at the end of the body (LIFO), matching Go
// function-exit semantics closely enough for lock-region analysis; a
// body that lowers to nothing gets a unit compute, so every procedure
// has at least one straight-line block.
func (e *extractor) lowerFunc(fn *goFunc) {
	b := e.prog.NewProc(fn.proc)
	e.deferred = e.deferred[:0]
	start := e.emitted
	e.lowerStmt(b, fn, fn.body)
	for i := len(e.deferred) - 1; i >= 0; i-- {
		e.deferred[i](b)
	}
	if e.emitted == start {
		b.Compute(1)
		e.emitted++
	}
	b.Done()
}

// lowerBody lowers a statement list as a nested arm (loop body, branch
// arm), guaranteeing at least one instruction so lowering never produces
// degenerate empty regions.
func (e *extractor) lowerArm(b *ir.Builder, fn *goFunc, stmt ast.Stmt) {
	start := e.emitted
	if stmt != nil {
		e.lowerStmt(b, fn, stmt)
	}
	if e.emitted == start {
		b.Compute(1)
		e.emitted++
	}
}

func (e *extractor) lowerStmt(b *ir.Builder, fn *goFunc, stmt ast.Stmt) {
	switch s := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			e.lowerStmt(b, fn, st)
		}
	case *ast.ExprStmt:
		if handles, ok := e.joinAt[stmt]; ok {
			// A proven wg.Wait(): joins order every structured worker's
			// completion before the code below the Wait.
			for _, h := range handles {
				b.Join(h)
				e.emitted++
			}
			return
		}
		if name, ok := e.recvAt[stmt]; ok {
			b.Recv(name)
			e.emitted++
			return
		}
		e.lowerExpr(b, fn, s.X)
	case *ast.AssignStmt:
		if name, ok := e.recvAt[stmt]; ok {
			// v := <-ch: the receive precedes the store, so the store
			// lands in the post-receive segment.
			b.Recv(name)
			e.emitted++
		}
		for _, rhs := range s.Rhs {
			e.lowerExpr(b, fn, rhs)
		}
		for _, lhs := range s.Lhs {
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				e.lowerExpr(b, fn, lhs) // compound assign reads first
			}
			e.lowerWrite(b, fn, lhs)
		}
	case *ast.IncDecStmt:
		e.lowerWrite(b, fn, s.X)
	case *ast.GoStmt:
		// Thread creation is modeled by declareThreads (flat) or a spawn
		// statement (structured); either way argument evaluation happens
		// on the spawning thread. A directly spawned literal's body
		// belongs to its synthetic procedure.
		for _, arg := range s.Call.Args {
			e.lowerExpr(b, fn, arg)
		}
		if _, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); !ok {
			e.lowerExpr(b, fn, s.Call.Fun)
		}
		if pl := e.spawnPlan[s]; pl != nil && pl.cpu >= 0 {
			b.Spawn(pl.handle, pl.cpu, pl.sp.callee.proc, pl.params...)
			e.emitted++
		}
	case *ast.DeferStmt:
		if call, ok := e.mutexCall(fn, s.Call); ok && !call.acquire {
			// Deferred unlock: runs at function exit.
			c := call
			e.deferred = append(e.deferred, func(b *ir.Builder) {
				b.Unlock(c.st.IR, c.field, c.inst)
				e.emitted++
			})
			return
		}
		e.lowerExpr(b, fn, s.Call) // other defers: approximated at the defer site
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			e.lowerExpr(b, fn, r)
		}
	case *ast.IfStmt:
		e.lowerStmt(b, fn, s.Init)
		e.lowerExpr(b, fn, s.Cond)
		if s.Else != nil {
			b.IfElse(0.5,
				func(b *ir.Builder) { e.lowerArm(b, fn, s.Body) },
				func(b *ir.Builder) { e.lowerArm(b, fn, s.Else) })
		} else {
			b.If(0.5, func(b *ir.Builder) { e.lowerArm(b, fn, s.Body) })
		}
	case *ast.ForStmt:
		e.lowerStmt(b, fn, s.Init)
		b.Loop(loopTrip, func(b *ir.Builder) {
			if s.Cond != nil {
				e.lowerExpr(b, fn, s.Cond)
			}
			e.lowerArm(b, fn, s.Body)
			e.lowerStmt(b, fn, s.Post)
		})
	case *ast.RangeStmt:
		e.lowerExpr(b, fn, s.X)
		b.Loop(loopTrip, func(b *ir.Builder) {
			e.lowerArm(b, fn, s.Body)
		})
	case *ast.SwitchStmt:
		e.lowerStmt(b, fn, s.Init)
		e.lowerExpr(b, fn, s.Tag)
		e.lowerClauses(b, fn, s.Body)
	case *ast.TypeSwitchStmt:
		e.lowerStmt(b, fn, s.Init)
		e.lowerStmt(b, fn, s.Assign)
		e.lowerClauses(b, fn, s.Body)
	case *ast.SelectStmt:
		e.lowerClauses(b, fn, s.Body)
	case *ast.SendStmt:
		if name, ok := e.sendAt[stmt]; ok {
			// The value is produced before the rendezvous, so its
			// accesses land in the pre-send segment.
			e.lowerExpr(b, fn, s.Value)
			b.Send(name)
			e.emitted++
			return
		}
		e.lowerExpr(b, fn, s.Chan)
		e.lowerExpr(b, fn, s.Value)
	case *ast.LabeledStmt:
		e.lowerStmt(b, fn, s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						e.lowerExpr(b, fn, v)
					}
				}
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
		// Control transfers carry no field traffic.
	}
}

// lowerClauses lowers switch/select clause bodies, each behind an
// independent coin-flip branch — static frequencies, not semantics.
func (e *extractor) lowerClauses(b *ir.Builder, fn *goFunc, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, x := range c.List {
				e.lowerExpr(b, fn, x)
			}
			stmts = c.Body
		case *ast.CommClause:
			e.lowerStmt(b, fn, c.Comm)
			stmts = c.Body
		}
		if len(stmts) == 0 {
			continue
		}
		b.If(0.5, func(b *ir.Builder) {
			e.lowerArm(b, fn, &ast.BlockStmt{List: stmts})
		})
	}
}

// mutexCallInfo describes a resolved sync.Mutex/RWMutex method call.
type mutexCallInfo struct {
	st      *StructDef
	field   string
	inst    ir.InstExpr
	acquire bool
}

// mutexCall recognizes x.mu.Lock/Unlock/RLock/RUnlock() on a mutex field
// of a lowered struct and mu.Lock() on a bare package/captured mutex
// var. The lock's instance follows its base x the way a field access's
// does in fn, so a lock taken through a pointer parameter or receiver
// names that pointer's instance. RLock counts as an acquire: the lock
// word is genuinely written, and reader-reader exclusion only ever
// under-reports sharing hazards.
func (e *extractor) mutexCall(fn *goFunc, call *ast.CallExpr) (mutexCallInfo, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexCallInfo{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return mutexCallInfo{}, false
	}
	// x.mu.Lock(): mu a mutex field of a lowered struct.
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if def, field, base := e.mutexField(inner); def != nil {
			return mutexCallInfo{st: def, field: field, inst: e.instOf(fn, base), acquire: acquire}, true
		}
	}
	// mu.Lock(): a bare mutex var lowered into the synthetic locks
	// struct (one shared instance; fields distinguish the locks).
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && e.lockSt != nil {
		if v, ok := e.objOf(id).(*types.Var); ok {
			if field, ok := e.lockField[v]; ok {
				return mutexCallInfo{st: e.lockSt, field: field, inst: ir.Shared(0), acquire: acquire}, true
			}
		}
	}
	return mutexCallInfo{}, false
}

// lowerExpr walks an expression emitting the field reads (and lock
// operations, calls) it performs.
func (e *extractor) lowerExpr(b *ir.Builder, fn *goFunc, expr ast.Expr) {
	switch x := expr.(type) {
	case nil:
	case *ast.SelectorExpr:
		e.lowerAccess(b, fn, x, false)
	case *ast.CallExpr:
		e.lowerCall(b, fn, x)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// &x.f escapes the field's address — whoever receives it may
			// write through it (atomic.AddInt64(&s.n, 1) is the idiom).
			if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
				e.lowerAccess(b, fn, sel, true)
				return
			}
		}
		e.lowerExpr(b, fn, x.X)
	case *ast.BinaryExpr:
		e.lowerExpr(b, fn, x.X)
		e.lowerExpr(b, fn, x.Y)
	case *ast.ParenExpr:
		e.lowerExpr(b, fn, x.X)
	case *ast.StarExpr:
		e.lowerExpr(b, fn, x.X)
	case *ast.IndexExpr:
		e.lowerExpr(b, fn, x.X)
		e.lowerExpr(b, fn, x.Index)
	case *ast.IndexListExpr:
		e.lowerExpr(b, fn, x.X)
	case *ast.SliceExpr:
		e.lowerExpr(b, fn, x.X)
		e.lowerExpr(b, fn, x.Low)
		e.lowerExpr(b, fn, x.High)
		e.lowerExpr(b, fn, x.Max)
	case *ast.TypeAssertExpr:
		e.lowerExpr(b, fn, x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			e.lowerExpr(b, fn, elt)
		}
	case *ast.KeyValueExpr:
		e.lowerExpr(b, fn, x.Value)
	case *ast.FuncLit:
		// Synchronously-used literal: its body runs on this goroutine.
		e.lowerStmt(b, fn, x.Body)
	}
}

// lowerCall lowers a call expression: mutex operations become lock
// regions, same-package calls become IR calls (unless dropped to break
// recursion), everything else just evaluates its arguments.
func (e *extractor) lowerCall(b *ir.Builder, fn *goFunc, call *ast.CallExpr) {
	if mc, ok := e.mutexCall(fn, call); ok {
		if mc.acquire {
			b.Lock(mc.st.IR, mc.field, mc.inst)
		} else {
			b.Unlock(mc.st.IR, mc.field, mc.inst)
		}
		e.emitted++
		return
	}
	// Conversions have no callee; just evaluate the operand.
	if tv, ok := e.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			e.lowerExpr(b, fn, arg)
		}
		return
	}
	for _, arg := range call.Args {
		e.lowerExpr(b, fn, arg)
	}
	if callee := e.calleeOf(call); callee != nil {
		if !e.dropped[[2]string{fn.proc, callee.proc}] {
			b.Call(callee.proc)
			e.emitted++
		}
		return
	}
	// Method calls on expressions still evaluate the receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		e.lowerExpr(b, fn, sel.X)
	}
}

// lowerAccess emits the field access a selector performs, if it reaches
// a field of a lowered struct; otherwise it recurses into the base.
func (e *extractor) lowerAccess(b *ir.Builder, fn *goFunc, sel *ast.SelectorExpr, write bool) {
	selection := e.pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		// Qualified identifier (pkg.X) or method value: nothing to emit
		// beyond the base expression.
		if _, isIdent := sel.X.(*ast.Ident); !isIdent {
			e.lowerExpr(b, fn, sel.X)
		}
		return
	}
	def := e.structDefOf(selection.Recv())
	if def == nil {
		e.lowerExpr(b, fn, sel.X)
		return
	}
	// Promoted selections (embedded structs) touch the outer field
	// holding the embedded value: Index()[0] is that field.
	idx := selection.Index()[0]
	if idx < 0 || idx >= len(def.IR.Fields) {
		return
	}
	inst := e.instOf(fn, sel.X)
	if write {
		b.WriteI(def.IR, idx, inst)
	} else {
		b.ReadI(def.IR, idx, inst)
	}
	e.emitted++
}

// lowerWrite emits the store an assignment target performs.
func (e *extractor) lowerWrite(b *ir.Builder, fn *goFunc, lhs ast.Expr) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		e.lowerAccess(b, fn, x, true)
	case *ast.StarExpr:
		e.lowerExpr(b, fn, x.X)
	case *ast.IndexExpr:
		e.lowerExpr(b, fn, x.X)
		e.lowerExpr(b, fn, x.Index)
	case *ast.Ident:
		// Local/global scalar writes don't touch lowered struct fields.
	}
}

// instOf resolves the instance a selector base designates in fn.
func (e *extractor) instOf(fn *goFunc, base ast.Expr) ir.InstExpr {
	for {
		switch x := base.(type) {
		case *ast.ParenExpr:
			base = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return ir.Param(unknownSlot)
			}
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.Ident:
			v, ok := e.objOf(x).(*types.Var)
			if !ok {
				return ir.Param(unknownSlot)
			}
			if idx, ok := e.instIdx[v]; ok && idx >= 0 {
				return ir.Shared(idx)
			}
			if slot, ok := fn.paramSlot[v]; ok {
				if _, isPtr := v.Type().(*types.Pointer); isPtr {
					return ir.Param(slot)
				}
				// Value receiver/parameter: the callee owns a copy.
				return ir.PerCPU()
			}
			if !e.isPackageLevel(v) && !v.IsField() {
				return ir.PerCPU() // uncaptured local: frame-private
			}
			return ir.Param(unknownSlot)
		default:
			// Slice/map elements, channel receives, call results, nested
			// fields: statically unknown instance.
			return ir.Param(unknownSlot)
		}
	}
}
