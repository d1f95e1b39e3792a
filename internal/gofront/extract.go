package gofront

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"structlayout/internal/ir"
	"structlayout/internal/irtext"
)

// instBase is the first instance index handed to named objects (package
// vars, captured locals). Per-CPU instances resolve to thread CPUs, which
// maxThreads keeps below this base, so the two index spaces never
// collide and declared arena counts keep every distinctness proof exact.
const instBase = 64

// unknownSlot is the parameter slot used for instance expressions the
// frontend cannot resolve (slice/map elements, pointers from other
// packages, nested objects). No thread ever binds it, so staticshare
// sees the access as possibly-overlapping — conservative, never certain.
const unknownSlot = 1 << 20

// Model is the lowered form of one Go package.
type Model struct {
	Pkg     *Package
	File    *irtext.File
	Structs []*StructDef
	// Notes record constructs the extraction dropped or approximated,
	// deterministically ordered; they surface in the CLI output so a
	// silent cap never reads as full coverage.
	Notes []string
}

// StructDef ties an IR struct to its Go declaration.
type StructDef struct {
	// Name is the IR struct name; GoName the declared Go type name
	// (equal unless sanitization had to rename).
	Name   string
	GoName string
	IR     *ir.StructType
	// FieldNames and FieldTypes give, per IR field index, the Go field
	// name and its rendered type expression (for suggestion diffs).
	FieldNames []string
	FieldTypes []string
}

// goFunc is one lowerable function body: a declared function or method,
// or a synthetic procedure for a `go func(){...}()` literal.
type goFunc struct {
	proc string // IR procedure name
	body *ast.BlockStmt
	sig  *types.Signature
	// paramSlot maps receiver (slot 0) and parameters (slots 1..) to
	// thread-parameter slots.
	paramSlot map[*types.Var]int
	// spawns lists the function's direct `go` statements in source
	// order; calls the resolved same-package callees (proc names).
	spawns []*spawn
	calls  []string
	lit    *ast.FuncLit // set for synthetic go-literal procs
}

type spawn struct {
	callee *goFunc
	recv   ast.Expr // method receiver at the spawn site, nil otherwise
	args   []ast.Expr
	inLoop bool
	stmt   *ast.GoStmt // the spawn site, for structured-emission planning
}

type extractor struct {
	pkg  *Package
	prog *ir.Program

	structs      []*StructDef
	structByType map[*types.TypeName]*StructDef

	funcs     []*goFunc
	funcByObj map[*types.Func]*goFunc

	// instIdx assigns shared instance indices to package-level struct
	// vars and goroutine-captured locals; lockField maps bare mutex vars
	// to fields of the synthetic locks struct.
	instIdx   map[*types.Var]int
	nextInst  int
	lockSt    *StructDef
	lockField map[*types.Var]string

	names    map[string]bool // taken IR identifiers
	dropped  map[[2]string]bool
	threads  []irtext.ThreadDecl
	notes    []string
	emitted  int // accesses/statements emitted by the current lowering
	deferred []func(*ir.Builder)

	// Structured-sync plan (see syncplan.go): `go` sites lowered as
	// spawn statements, WaitGroup Waits that become joins, and channel
	// endpoints that become rendezvous send/recv statements.
	spawnPlan map[*ast.GoStmt]*structuredSpawn
	joinAt    map[ast.Stmt][]string
	sendAt    map[ast.Stmt]string
	recvAt    map[ast.Stmt]string
}

// Extract lowers a loaded package into the IR plus its thread and arena
// declarations. Builder preconditions panic on programmer errors; for
// arbitrary input packages they are data errors, so a recover backstop
// converts them. Extraction reads no option; the parameter keeps the call
// shape Load and LintPackage share.
func Extract(pkg *Package, _ Options) (m *Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("gofront: extraction failed: %v", r)
		}
	}()
	e := &extractor{
		pkg:          pkg,
		prog:         ir.NewProgram(sanitizeIdent(pkg.Name)),
		structByType: make(map[*types.TypeName]*StructDef),
		funcByObj:    make(map[*types.Func]*goFunc),
		instIdx:      make(map[*types.Var]int),
		lockField:    make(map[*types.Var]string),
		names:        make(map[string]bool),
		dropped:      make(map[[2]string]bool),
		nextInst:     instBase,
	}
	e.collectStructs()
	e.collectFuncs()
	for _, fn := range e.funcs {
		e.prescan(fn)
	}
	e.assignInstances()
	e.breakCycles()
	e.planSync()
	e.declareThreads()
	for _, fn := range e.funcs {
		e.lowerFunc(fn)
	}
	if err := e.prog.Finalize(); err != nil {
		return nil, fmt.Errorf("gofront: %w", err)
	}
	arenas := make(map[string]int, len(e.prog.Structs))
	for _, st := range e.prog.Structs {
		arenas[st.Name] = e.nextInst
	}
	sort.Strings(e.notes)
	return &Model{
		Pkg:     pkg,
		File:    &irtext.File{Prog: e.prog, Arenas: arenas, Threads: e.threads},
		Structs: e.structs,
		Notes:   e.notes,
	}, nil
}

func (e *extractor) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// uniqueName sanitizes a Go identifier into an unused irtext identifier.
func (e *extractor) uniqueName(name string) string {
	name = sanitizeIdent(name)
	for e.names[name] {
		name += "_"
	}
	e.names[name] = true
	return name
}

func sanitizeIdent(name string) string {
	if name == "" {
		return "x"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// collectStructs lowers every package-scope struct type, scope order
// sorted. Un-sizable structs (type parameters, unresolved field types)
// are skipped with a note.
func (e *extractor) collectStructs() {
	astTypes := e.astStructTypes()
	scope := e.pkg.Pkg.Scope()
	names := append([]string(nil), scope.Names()...)
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || st.NumFields() == 0 {
			continue
		}
		if named.TypeParams().Len() > 0 {
			e.note("struct %s skipped: generic struct sizes are not static", name)
			continue
		}
		def := e.lowerStruct(name, st, astTypes[name])
		if def == nil {
			continue
		}
		e.prog.AddStruct(def.IR)
		e.structs = append(e.structs, def)
		e.structByType[tn] = def
	}
}

func (e *extractor) lowerStruct(goName string, st *types.Struct, astST *ast.StructType) *StructDef {
	def := &StructDef{GoName: goName, Name: e.uniqueName(goName)}
	astFieldTypes := flattenFieldTypes(astST, e.pkg.Fset)
	var fields []ir.Field
	seen := make(map[string]bool)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		size, align, ok := e.safeSize(f.Type())
		if !ok {
			e.note("struct %s skipped: field %s has no static size", goName, f.Name())
			return nil
		}
		irName := sanitizeIdent(f.Name())
		if irName == "_" || seen[irName] {
			irName = fmt.Sprintf("_f%d", i)
		}
		seen[irName] = true
		fields = append(fields, ir.Field{Name: irName, Size: size, Align: align})
		def.FieldNames = append(def.FieldNames, f.Name())
		ft := ""
		if i < len(astFieldTypes) {
			ft = astFieldTypes[i]
		}
		def.FieldTypes = append(def.FieldTypes, ft)
	}
	def.IR = ir.NewStruct(def.Name, fields...)
	return def
}

// safeSize sizes a type, tolerating invalid types from unresolved
// imports (8/8 — a pointer-sized guess) and refusing only types the
// sizer cannot handle at all.
func (e *extractor) safeSize(t types.Type) (size, align int, ok bool) {
	defer func() {
		if recover() != nil {
			size, align, ok = 0, 0, false
		}
	}()
	if bt, isBasic := t.Underlying().(*types.Basic); isBasic && bt.Kind() == types.Invalid {
		return 8, 8, true
	}
	sz := e.pkg.Sizes.Sizeof(t)
	al := e.pkg.Sizes.Alignof(t)
	if sz <= 0 {
		sz = 1 // zero-size fields (struct{}) still occupy a slot
	}
	if al <= 0 || al&(al-1) != 0 {
		al = 1
	}
	return int(sz), int(al), true
}

// astStructTypes maps type names to their AST struct nodes.
func (e *extractor) astStructTypes() map[string]*ast.StructType {
	out := make(map[string]*ast.StructType)
	for _, f := range e.pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					out[ts.Name.Name] = st
				}
			}
		}
	}
	return out
}

// flattenFieldTypes renders one type string per flattened field of the
// AST struct (a `a, b int64` group yields two entries).
func flattenFieldTypes(st *ast.StructType, fset *token.FileSet) []string {
	if st == nil {
		return nil
	}
	var out []string
	for _, f := range st.Fields.List {
		var b strings.Builder
		printer.Fprint(&b, fset, f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1 // embedded
		}
		for i := 0; i < n; i++ {
			out = append(out, b.String())
		}
	}
	return out
}

// collectFuncs registers every declared function and method with a body.
func (e *extractor) collectFuncs() {
	for _, f := range e.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := e.pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if sig.Recv() != nil {
				name = recvTypeName(sig.Recv().Type()) + "_" + name
			}
			fn := &goFunc{
				proc:      e.uniqueName(name),
				body:      fd.Body,
				sig:       sig,
				paramSlot: paramSlots(sig),
			}
			e.funcs = append(e.funcs, fn)
			e.funcByObj[obj] = fn
		}
	}
	sort.Slice(e.funcs, func(i, j int) bool { return e.funcs[i].proc < e.funcs[j].proc })
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "recv"
}

func paramSlots(sig *types.Signature) map[*types.Var]int {
	slots := make(map[*types.Var]int)
	if r := sig.Recv(); r != nil {
		slots[r] = 0
	}
	for i := 0; i < sig.Params().Len(); i++ {
		slots[sig.Params().At(i)] = i + 1
	}
	return slots
}

// prescan walks a function body collecting `go` spawn sites, call edges
// and captured variables — everything thread and instance assignment
// need before lowering. Function literals directly spawned become
// synthetic procedures (prescanned recursively, appended to e.funcs);
// all other literals are treated as part of the enclosing body.
func (e *extractor) prescan(fn *goFunc) {
	litProcs := 0
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				walk(arg, inLoop)
			}
			callee, recv := e.resolveSpawn(fn, n.Call, &litProcs)
			if callee == nil {
				e.note("proc %s: `go` statement target not a package function; thread dropped", fn.proc)
				return
			}
			fn.spawns = append(fn.spawns, &spawn{callee: callee, recv: recv, args: n.Call.Args, inLoop: inLoop, stmt: n})
		case *ast.CallExpr:
			for _, arg := range n.Args {
				walk(arg, inLoop)
			}
			walk(n.Fun, inLoop)
			if callee := e.calleeOf(n); callee != nil {
				fn.calls = append(fn.calls, callee.proc)
			}
		case *ast.ForStmt:
			walk(n.Init, inLoop)
			walk(n.Cond, true)
			walk(n.Post, true)
			walk(n.Body, true)
		case *ast.RangeStmt:
			walk(n.X, inLoop)
			walk(n.Body, true)
		case *ast.FuncLit:
			// Non-spawned literal: body belongs to the enclosing proc.
			walk(n.Body, inLoop)
		default:
			var children []ast.Node
			ast.Inspect(n, func(c ast.Node) bool {
				if c == nil || c == n {
					return c == n
				}
				children = append(children, c)
				return false
			})
			for _, c := range children {
				walk(c, inLoop)
			}
		}
	}
	walk(fn.body, false)
}

// resolveSpawn resolves a `go` call target to a lowerable function,
// synthesizing a procedure for directly-spawned literals.
func (e *extractor) resolveSpawn(parent *goFunc, call *ast.CallExpr, litProcs *int) (*goFunc, ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		sig, _ := e.pkg.Info.Types[fun].Type.(*types.Signature)
		if sig == nil {
			return nil, nil
		}
		*litProcs++
		lit := &goFunc{
			proc:      e.uniqueName(fmt.Sprintf("%s_go%d", parent.proc, *litProcs)),
			body:      fun.Body,
			sig:       sig,
			paramSlot: paramSlots(sig),
			lit:       fun,
		}
		e.funcs = append(e.funcs, lit)
		e.captureVars(fun)
		e.prescan(lit)
		return lit, nil
	case *ast.Ident:
		if obj, ok := e.pkg.Info.Uses[fun].(*types.Func); ok {
			return e.funcByObj[obj], nil
		}
	case *ast.SelectorExpr:
		if obj, ok := e.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if callee := e.funcByObj[obj]; callee != nil {
				return callee, fun.X
			}
		}
	}
	return nil, nil
}

// calleeOf resolves a non-go call expression to a same-package function.
func (e *extractor) calleeOf(call *ast.CallExpr) *goFunc {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := e.pkg.Info.Uses[fun].(*types.Func); ok {
			return e.funcByObj[obj]
		}
	case *ast.SelectorExpr:
		if obj, ok := e.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return e.funcByObj[obj]
		}
	}
	return nil
}

// captureVars marks variables a spawned literal references but does not
// declare: they outlive the spawning frame and are shared between the
// spawner and the goroutine, so struct-typed ones get shared instances
// and bare mutexes join the synthetic locks struct.
func (e *extractor) captureVars(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := e.pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if e.isPackageLevel(obj) {
			return true // already a named instance
		}
		if _, done := e.instIdx[obj]; done {
			return true
		}
		// Reserve deterministically later (assignInstances sorts); mark
		// with a placeholder here.
		e.instIdx[obj] = -1
		return true
	})
}

func (e *extractor) isPackageLevel(v *types.Var) bool {
	return v.Parent() == e.pkg.Pkg.Scope()
}

// assignInstances gives shared instance indices to package-level struct
// vars (sorted by name) and captured struct locals (sorted by position),
// and builds the synthetic locks struct for bare sync.Mutex/RWMutex vars
// in the same order.
func (e *extractor) assignInstances() {
	var lockVars []*types.Var
	scope := e.pkg.Pkg.Scope()
	names := append([]string(nil), scope.Names()...)
	sort.Strings(names)
	for _, name := range names {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		switch {
		case e.structDefOf(v.Type()) != nil:
			e.instIdx[v] = e.nextInst
			e.nextInst++
		case isBareMutex(v.Type()):
			lockVars = append(lockVars, v)
		}
	}
	// Captured locals, position-sorted (files parse in sorted order, so
	// positions are deterministic).
	var captured []*types.Var
	for v, idx := range e.instIdx {
		if idx == -1 {
			captured = append(captured, v)
		}
	}
	sort.Slice(captured, func(i, j int) bool { return captured[i].Pos() < captured[j].Pos() })
	for _, v := range captured {
		switch {
		case e.structDefOf(v.Type()) != nil:
			e.instIdx[v] = e.nextInst
			e.nextInst++
		case isBareMutex(v.Type()):
			delete(e.instIdx, v)
			lockVars = append(lockVars, v)
		default:
			delete(e.instIdx, v) // captured non-struct: nothing to place
		}
	}
	if len(lockVars) == 0 {
		return
	}
	def := &StructDef{GoName: "(package locks)", Name: e.uniqueName("pkg_locks")}
	var fields []ir.Field
	seen := make(map[string]bool)
	for i, v := range lockVars {
		fname := sanitizeIdent(v.Name())
		if fname == "_" || seen[fname] {
			fname = fmt.Sprintf("_mu%d", i)
		}
		seen[fname] = true
		fields = append(fields, ir.I64(fname))
		def.FieldNames = append(def.FieldNames, v.Name())
		def.FieldTypes = append(def.FieldTypes, "sync.Mutex")
		e.lockField[v] = fname
	}
	def.IR = ir.NewStruct(def.Name, fields...)
	e.prog.AddStruct(def.IR)
	e.lockSt = def
}

// structDefOf maps a (possibly pointer) type to its lowered struct.
func (e *extractor) structDefOf(t types.Type) *StructDef {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return e.structByType[n.Obj()]
}

// isBareMutex reports whether t is sync.Mutex or sync.RWMutex itself
// (not a struct containing one).
func isBareMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// mutexField resolves `x.mu` in `x.mu.Lock()` to its struct field when
// mu is a sync.Mutex/RWMutex field of a lowered struct.
func (e *extractor) mutexField(sel *ast.SelectorExpr) (*StructDef, string, ast.Expr) {
	selection := e.pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return nil, "", nil
	}
	fv, ok := selection.Obj().(*types.Var)
	if !ok || !isBareMutex(fv.Type()) {
		return nil, "", nil
	}
	def := e.structDefOf(selection.Recv())
	if def == nil {
		return nil, "", nil
	}
	idx := selection.Index()[0]
	if idx >= len(def.IR.Fields) {
		return nil, "", nil
	}
	return def, def.IR.Fields[idx].Name, sel.X
}

// breakCycles drops call edges that would make the call graph recursive:
// ir.Finalize rejects recursion, and static frequencies need a DAG. DFS
// in sorted proc order keeps the dropped set deterministic.
func (e *extractor) breakCycles() {
	byName := make(map[string]*goFunc, len(e.funcs))
	for _, fn := range e.funcs {
		byName[fn.proc] = fn
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(fn *goFunc)
	visit = func(fn *goFunc) {
		color[fn.proc] = gray
		for _, callee := range fn.calls {
			next := byName[callee]
			if next == nil {
				continue
			}
			switch color[callee] {
			case gray:
				if !e.dropped[[2]string{fn.proc, callee}] {
					e.dropped[[2]string{fn.proc, callee}] = true
					e.note("recursive call %s -> %s dropped (static pass needs an acyclic call graph)", fn.proc, callee)
				}
			case white:
				visit(next)
			}
		}
		color[fn.proc] = black
	}
	sort.Slice(e.funcs, func(i, j int) bool { return e.funcs[i].proc < e.funcs[j].proc })
	for _, fn := range e.funcs {
		if color[fn.proc] == white {
			visit(fn)
		}
	}
}

// declareThreads models the package's goroutine structure: every
// function containing a `go` statement runs as a thread itself (the
// spawning goroutine), and each `go` site contributes one thread — or
// spawnsPerLoopGo when the spawn sits in a loop, so distinct-thread
// conflicts on the spawned body exist. Structured spawn sites are
// declared by the spawn statement instead; they only reserve a CPU
// number here, so flat and structured threads share one numbering.
// maxThreads caps the total.
func (e *extractor) declareThreads() {
	cpu := 0
	capped := false
	add := func(proc string, params []int) {
		if cpu >= maxThreads {
			capped = true
			return
		}
		e.threads = append(e.threads, irtext.ThreadDecl{CPU: cpu, Proc: proc, Params: params, Iters: 1})
		cpu++
	}
	for _, fn := range e.funcs {
		if len(fn.spawns) == 0 {
			continue
		}
		add(fn.proc, nil)
		for _, sp := range fn.spawns {
			if pl := e.spawnPlan[sp.stmt]; pl != nil {
				if cpu < maxThreads {
					pl.cpu = cpu
					cpu++
					continue
				}
				e.demoteSpawn(pl)
			}
			n := 1
			if sp.inLoop {
				n = spawnsPerLoopGo
			}
			params := e.spawnParams(sp)
			for i := 0; i < n; i++ {
				add(sp.callee.proc, params)
			}
		}
	}
	if capped {
		e.note("thread count capped at %d; remaining `go` sites not modeled", maxThreads)
	}
}

// spawnParams binds the spawned thread's parameter vector positionally:
// slot 0 the receiver, slots 1.. the call arguments, truncated at the
// first argument that does not resolve to a named instance (unbound
// slots read as unknown, which staticshare treats conservatively).
func (e *extractor) spawnParams(sp *spawn) []int {
	var params []int
	bind := func(expr ast.Expr) bool {
		if expr == nil {
			params = append(params, 0) // unused receiver slot of a plain function
			return true
		}
		if idx, ok := e.namedInstanceOf(expr); ok {
			params = append(params, idx)
			return true
		}
		return false
	}
	if !bind(sp.recv) {
		return nil
	}
	for _, arg := range sp.args {
		if !bind(arg) {
			break
		}
	}
	return params
}

// namedInstanceOf resolves &pkgVar / pkgVar / capturedVar expressions to
// their assigned shared instance index.
func (e *extractor) namedInstanceOf(expr ast.Expr) (int, bool) {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return 0, false
			}
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.Ident:
			if v, ok := e.objOf(x).(*types.Var); ok {
				if idx, ok := e.instIdx[v]; ok && idx >= 0 {
					return idx, true
				}
			}
			return 0, false
		default:
			return 0, false
		}
	}
}

func (e *extractor) objOf(id *ast.Ident) types.Object {
	if obj := e.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return e.pkg.Info.Defs[id]
}
