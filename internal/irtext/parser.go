package irtext

import (
	"fmt"
	"strconv"

	"structlayout/internal/ir"
)

// ThreadDecl is one `thread` declaration: which CPU runs which procedure
// with which parameters, how many times.
type ThreadDecl struct {
	CPU    int
	Proc   string
	Params []int
	Iters  int64
}

// File is a parsed program plus its run harness.
type File struct {
	// Prog is the finalized program.
	Prog *ir.Program
	// Arenas maps struct name to instance count.
	Arenas map[string]int
	// Threads lists the declared threads in order.
	Threads []ThreadDecl
}

// Parse reads a program in the irtext syntax and finalizes it.
func Parse(src string) (f *File, err error) {
	// The IR builder enforces its own preconditions by panicking (they are
	// programmer errors when the builder is driven from Go code). For text
	// input they are user errors: convert any builder panic to a parse
	// error as a backstop behind the parser's own validation.
	defer func() {
		if r := recover(); r != nil {
			f, err = nil, fmt.Errorf("irtext: invalid program: %v", r)
		}
	}()
	p := &parser{lex: newLexer(src)}
	if err := p.advanceTok(); err != nil {
		return nil, err
	}
	f, err = p.parseFile()
	if err != nil {
		return nil, err
	}
	if err := f.Prog.Finalize(); err != nil {
		return nil, fmt.Errorf("irtext: %w", err)
	}
	for name := range f.Arenas {
		if f.Prog.Struct(name) == nil {
			return nil, fmt.Errorf("irtext: arena for undefined struct %q", name)
		}
	}
	for _, td := range f.Threads {
		if f.Prog.Proc(td.Proc) == nil {
			return nil, fmt.Errorf("irtext: thread references undefined proc %q", td.Proc)
		}
	}
	return f, nil
}

// parser is a one-token-lookahead recursive-descent parser.
type parser struct {
	lex *lexer
	tok token

	prog    *ir.Program
	structs map[string]*ir.StructType
}

func (p *parser) advanceTok() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("irtext: %d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

// errAt reports an error at an already-consumed token's position.
func errAt(t token, format string, args ...interface{}) error {
	return fmt.Errorf("irtext: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

// expectIdentTok is expectIdent("") that also returns the token for
// position-accurate errors about its content.
func (p *parser) expectIdentTok() (string, token, error) {
	t := p.tok
	s, err := p.expectIdent("")
	return s, t, err
}

// expectIdent consumes an identifier (optionally a specific one).
func (p *parser) expectIdent(want string) (string, error) {
	if p.tok.kind != tokIdent {
		if want != "" {
			return "", p.errf("expected %q, got %s", want, p.tok)
		}
		return "", p.errf("expected identifier, got %s", p.tok)
	}
	got := p.tok.text
	if want != "" && got != want {
		return "", p.errf("expected %q, got %q", want, got)
	}
	return got, p.advanceTok()
}

// expectInt consumes an integer literal.
func (p *parser) expectInt() (int64, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errf("expected number, got %s", p.tok)
	}
	n, err := strconv.ParseInt(p.tok.text, 10, 64)
	if err != nil {
		return 0, p.errf("malformed integer %q", p.tok.text)
	}
	return n, p.advanceTok()
}

// expectFloat consumes a float literal.
func (p *parser) expectFloat() (float64, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errf("expected number, got %s", p.tok)
	}
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return 0, p.errf("malformed number %q", p.tok.text)
	}
	return v, p.advanceTok()
}

func (p *parser) expect(kind tokenKind, what string) error {
	if p.tok.kind != kind {
		return p.errf("expected %s, got %s", what, p.tok)
	}
	return p.advanceTok()
}

// parseFile handles the top level.
func (p *parser) parseFile() (*File, error) {
	if _, err := p.expectIdent("program"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("")
	if err != nil {
		return nil, err
	}
	p.prog = ir.NewProgram(name)
	p.structs = make(map[string]*ir.StructType)
	f := &File{Prog: p.prog, Arenas: make(map[string]int)}

	for p.tok.kind != tokEOF {
		kw, err := p.expectIdent("")
		if err != nil {
			return nil, err
		}
		switch kw {
		case "struct":
			if err := p.parseStruct(); err != nil {
				return nil, err
			}
		case "region":
			if err := p.parseRegion(); err != nil {
				return nil, err
			}
		case "proc":
			if err := p.parseProc(); err != nil {
				return nil, err
			}
		case "arena":
			structName, err := p.expectIdent("")
			if err != nil {
				return nil, err
			}
			count, err := p.expectInt()
			if err != nil {
				return nil, err
			}
			if count <= 0 {
				return nil, p.errf("arena %s needs a positive count", structName)
			}
			if _, dup := f.Arenas[structName]; dup {
				return nil, p.errf("duplicate arena for %s", structName)
			}
			f.Arenas[structName] = int(count)
		case "thread":
			td, err := p.parseThread()
			if err != nil {
				return nil, err
			}
			f.Threads = append(f.Threads, td)
		default:
			return nil, p.errf("unexpected top-level keyword %q (want struct, region, proc, arena or thread)", kw)
		}
	}
	return f, nil
}

// parseStruct handles: struct NAME { field type ... }.
func (p *parser) parseStruct() error {
	name, err := p.expectIdent("")
	if err != nil {
		return err
	}
	if _, dup := p.structs[name]; dup {
		return p.errf("duplicate struct %q", name)
	}
	if err := p.expect(tokLBrace, "'{'"); err != nil {
		return err
	}
	var fields []ir.Field
	seen := make(map[string]bool)
	for p.tok.kind != tokRBrace {
		fnameTok := p.tok
		fname, err := p.expectIdent("")
		if err != nil {
			return err
		}
		if seen[fname] {
			return errAt(fnameTok, "duplicate field %q in struct %s", fname, name)
		}
		seen[fname] = true
		f, err := p.parseFieldType(fname)
		if err != nil {
			return err
		}
		if f.Size <= 0 {
			return errAt(fnameTok, "field %q has non-positive size %d", fname, f.Size)
		}
		if f.Align <= 0 || f.Align&(f.Align-1) != 0 {
			return errAt(fnameTok, "field %q has alignment %d (want a positive power of two)", fname, f.Align)
		}
		fields = append(fields, f)
	}
	if err := p.advanceTok(); err != nil { // consume '}'
		return err
	}
	if len(fields) == 0 {
		return fmt.Errorf("irtext: struct %s has no fields", name)
	}
	st := ir.NewStruct(name, fields...)
	p.structs[name] = st
	p.prog.AddStruct(st)
	return nil
}

// parseFieldType handles: i8|i16|i32|i64|ptr | pad N | arr N ELEM align A.
func (p *parser) parseFieldType(fname string) (ir.Field, error) {
	kind, kindTok, err := p.expectIdentTok()
	if err != nil {
		return ir.Field{}, err
	}
	switch kind {
	case "i8":
		return ir.I8(fname), nil
	case "i16":
		return ir.I16(fname), nil
	case "i32":
		return ir.I32(fname), nil
	case "i64":
		return ir.I64(fname), nil
	case "ptr":
		return ir.Ptr(fname), nil
	case "pad":
		n, err := p.expectInt()
		if err != nil {
			return ir.Field{}, err
		}
		return ir.Pad(fname, int(n)), nil
	case "arr":
		n, err := p.expectInt()
		if err != nil {
			return ir.Field{}, err
		}
		elem, err := p.expectInt()
		if err != nil {
			return ir.Field{}, err
		}
		if _, err := p.expectIdent("align"); err != nil {
			return ir.Field{}, err
		}
		a, err := p.expectInt()
		if err != nil {
			return ir.Field{}, err
		}
		return ir.Arr(fname, int(n), int(elem), int(a)), nil
	default:
		return ir.Field{}, errAt(kindTok, "unknown field type %q", kind)
	}
}

// parseRegion handles: region NAME BYTES shared|perthread.
func (p *parser) parseRegion() error {
	nameTok := p.tok
	name, err := p.expectIdent("")
	if err != nil {
		return err
	}
	if p.prog.Region(name) != nil {
		return errAt(nameTok, "duplicate region %q", name)
	}
	bytes, err := p.expectInt()
	if err != nil {
		return err
	}
	if bytes <= 0 {
		return errAt(nameTok, "region %q needs a positive size, got %d", name, bytes)
	}
	scope, err := p.expectIdent("")
	if err != nil {
		return err
	}
	switch scope {
	case "shared":
		p.prog.AddRegion(name, bytes, false)
	case "perthread":
		p.prog.AddRegion(name, bytes, true)
	default:
		return p.errf("region scope must be shared or perthread, got %q", scope)
	}
	return nil
}

// parseProc handles: proc NAME { stmts }.
func (p *parser) parseProc() error {
	nameTok := p.tok
	name, err := p.expectIdent("")
	if err != nil {
		return err
	}
	if p.prog.Proc(name) != nil {
		return errAt(nameTok, "duplicate proc %q", name)
	}
	b := p.prog.NewProc(name)
	if err := p.expect(tokLBrace, "'{'"); err != nil {
		return err
	}
	if err := p.parseStmts(b); err != nil {
		return err
	}
	b.Done()
	return nil
}

// parseStmts parses until the closing brace (consumed).
func (p *parser) parseStmts(b *ir.Builder) error {
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return p.errf("unexpected end of file inside a block")
		}
		kw, err := p.expectIdent("")
		if err != nil {
			return err
		}
		if err := p.parseStmt(b, kw); err != nil {
			return err
		}
	}
	return p.advanceTok() // consume '}'
}

// parseStmt dispatches one statement keyword.
func (p *parser) parseStmt(b *ir.Builder, kw string) error {
	switch kw {
	case "read", "write":
		st, field, err := p.parseFieldRef()
		if err != nil {
			return err
		}
		inst, err := p.parseInst()
		if err != nil {
			return err
		}
		if kw == "read" {
			b.Read(st, field, inst)
		} else {
			b.Write(st, field, inst)
		}
	case "lock", "unlock":
		st, field, err := p.parseFieldRef()
		if err != nil {
			return err
		}
		inst, err := p.parseInst()
		if err != nil {
			return err
		}
		if kw == "lock" {
			b.Lock(st, field, inst)
		} else {
			b.Unlock(st, field, inst)
		}
	case "compute":
		nTok := p.tok
		n, err := p.expectInt()
		if err != nil {
			return err
		}
		if n <= 0 {
			return errAt(nTok, "compute needs positive cycles, got %d", n)
		}
		b.Compute(n)
	case "call":
		callee, err := p.expectIdent("")
		if err != nil {
			return err
		}
		b.Call(callee)
	case "loop":
		nTok := p.tok
		n, err := p.expectInt()
		if err != nil {
			return err
		}
		if n < 0 {
			return errAt(nTok, "loop needs a non-negative count, got %d", n)
		}
		if err := p.expect(tokLBrace, "'{'"); err != nil {
			return err
		}
		var inner error
		b.Loop(n, func(b *ir.Builder) {
			inner = p.parseStmts(b)
		})
		if inner != nil {
			return inner
		}
	case "if":
		prob, err := p.expectFloat()
		if err != nil {
			return err
		}
		if prob < 0 || prob > 1 {
			return p.errf("branch probability %v out of [0,1]", prob)
		}
		if err := p.expect(tokLBrace, "'{'"); err != nil {
			return err
		}
		var thenErr, elseErr error
		b.IfElse(prob,
			func(b *ir.Builder) { thenErr = p.parseStmts(b) },
			func(b *ir.Builder) {
				// The builder invokes this immediately after the then
				// closure, with the parser positioned past the then-block's
				// closing brace — exactly where an optional `else {` sits.
				if thenErr != nil {
					return
				}
				if p.tok.kind == tokIdent && p.tok.text == "else" {
					if elseErr = p.advanceTok(); elseErr != nil {
						return
					}
					if elseErr = p.expect(tokLBrace, "'{'"); elseErr != nil {
						return
					}
					elseErr = p.parseStmts(b)
				}
			})
		if thenErr != nil {
			return thenErr
		}
		if elseErr != nil {
			return elseErr
		}
	case "memsweep":
		region, acc, err := p.parseRegionAcc()
		if err != nil {
			return err
		}
		stride, err := p.expectInt()
		if err != nil {
			return err
		}
		b.MemSweep(region, acc, stride)
	case "memat":
		region, acc, err := p.parseRegionAcc()
		if err != nil {
			return err
		}
		off, err := p.expectInt()
		if err != nil {
			return err
		}
		b.MemAt(region, acc, off)
	case "memrand":
		region, acc, err := p.parseRegionAcc()
		if err != nil {
			return err
		}
		b.MemRandom(region, acc)
	case "spawn":
		handle, err := p.expectIdent("")
		if err != nil {
			return err
		}
		cpuTok := p.tok
		cpu, err := p.expectInt()
		if err != nil {
			return err
		}
		if cpu < 0 {
			return errAt(cpuTok, "spawn needs a non-negative CPU, got %d", cpu)
		}
		callee, err := p.expectIdent("")
		if err != nil {
			return err
		}
		var params []int
		if p.tok.kind == tokIdent && p.tok.text == "params" {
			if err := p.advanceTok(); err != nil {
				return err
			}
			for p.tok.kind == tokNumber {
				n, err := p.expectInt()
				if err != nil {
					return err
				}
				params = append(params, int(n))
			}
		}
		b.Spawn(handle, int(cpu), callee, params...)
	case "join":
		handle, err := p.expectIdent("")
		if err != nil {
			return err
		}
		b.Join(handle)
	case "send":
		ch, err := p.expectIdent("")
		if err != nil {
			return err
		}
		b.Send(ch)
	case "recv":
		ch, err := p.expectIdent("")
		if err != nil {
			return err
		}
		b.Recv(ch)
	default:
		return p.errf("unknown statement %q (want one of: %s)", kw, statementKeywords)
	}
	return nil
}

// parseFieldRef handles STRUCT.FIELD.
func (p *parser) parseFieldRef() (*ir.StructType, string, error) {
	sname, err := p.expectIdent("")
	if err != nil {
		return nil, "", err
	}
	st := p.structs[sname]
	if st == nil {
		return nil, "", p.errf("unknown struct %q", sname)
	}
	if err := p.expect(tokDot, "'.'"); err != nil {
		return nil, "", err
	}
	fname, err := p.expectIdent("")
	if err != nil {
		return nil, "", err
	}
	if st.FieldIndex(fname) < 0 {
		return nil, "", p.errf("struct %s has no field %q", sname, fname)
	}
	return st, fname, nil
}

// parseInst handles: shared N | percpu | param N | loopvar.
func (p *parser) parseInst() (ir.InstExpr, error) {
	kind, err := p.expectIdent("")
	if err != nil {
		return ir.InstExpr{}, err
	}
	switch kind {
	case "shared":
		n, err := p.expectInt()
		if err != nil {
			return ir.InstExpr{}, err
		}
		return ir.Shared(int(n)), nil
	case "percpu":
		return ir.PerCPU(), nil
	case "param":
		n, err := p.expectInt()
		if err != nil {
			return ir.InstExpr{}, err
		}
		return ir.Param(int(n)), nil
	case "loopvar":
		return ir.LoopVar(), nil
	default:
		return ir.InstExpr{}, p.errf("unknown instance selector %q (want shared, percpu, param or loopvar)", kind)
	}
}

// parseRegionAcc handles: REGION read|write.
func (p *parser) parseRegionAcc() (string, ir.AccessKind, error) {
	region, err := p.expectIdent("")
	if err != nil {
		return "", 0, err
	}
	if p.prog.Region(region) == nil {
		return "", 0, p.errf("unknown region %q", region)
	}
	accWord, err := p.expectIdent("")
	if err != nil {
		return "", 0, err
	}
	switch accWord {
	case "read":
		return region, ir.Read, nil
	case "write":
		return region, ir.Write, nil
	default:
		return "", 0, p.errf("access must be read or write, got %q", accWord)
	}
}

// parseThread handles: thread CPU PROC [params N...] iters N.
func (p *parser) parseThread() (ThreadDecl, error) {
	cpu, err := p.expectInt()
	if err != nil {
		return ThreadDecl{}, err
	}
	proc, err := p.expectIdent("")
	if err != nil {
		return ThreadDecl{}, err
	}
	td := ThreadDecl{CPU: int(cpu), Proc: proc, Iters: 1}
	for p.tok.kind == tokIdent {
		switch p.tok.text {
		case "params":
			if err := p.advanceTok(); err != nil {
				return ThreadDecl{}, err
			}
			for p.tok.kind == tokNumber {
				nTok := p.tok
				n, err := p.expectInt()
				if err != nil {
					return ThreadDecl{}, err
				}
				if n < 0 {
					// A parameter names an instance: a negative one would
					// address memory before its arena.
					return ThreadDecl{}, errAt(nTok, "thread params must be non-negative, got %d", n)
				}
				td.Params = append(td.Params, int(n))
			}
		case "iters":
			if err := p.advanceTok(); err != nil {
				return ThreadDecl{}, err
			}
			n, err := p.expectInt()
			if err != nil {
				return ThreadDecl{}, err
			}
			if n <= 0 {
				return ThreadDecl{}, p.errf("thread iters must be positive")
			}
			td.Iters = n
		default:
			return td, nil // next top-level keyword
		}
	}
	return td, nil
}
