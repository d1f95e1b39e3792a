package ir

import "fmt"

// lowerer carries the shared state of one procedure's lowering.
type lowerer struct {
	proc     *Procedure
	file     string
	nextLine *int
	loops    []*Loop // loop stack, innermost last
}

// lower converts the structured body into blocks, a loop nest and an
// execution tree. Called by Program.Finalize.
func (pr *Procedure) lower(nextLine *int) error {
	if pr.Blocks != nil {
		return fmt.Errorf("procedure %s lowered twice", pr.Name)
	}
	lo := &lowerer{proc: pr, file: pr.Name + ".c", nextLine: nextLine}

	entry := lo.newBlock(true)
	nodes, err := lo.lowerList(pr.Body)
	if err != nil {
		return err
	}
	exit := lo.newBlock(true)

	pr.Tree = make([]ExecNode, 0, len(nodes)+2)
	pr.Tree = append(pr.Tree, &ExecBlock{Block: entry})
	pr.Tree = append(pr.Tree, nodes...)
	pr.Tree = append(pr.Tree, &ExecBlock{Block: exit})
	return nil
}

func (lo *lowerer) newBlock(synthetic bool) *BasicBlock {
	var innermost *Loop
	if n := len(lo.loops); n > 0 {
		innermost = lo.loops[n-1]
	}
	b := &BasicBlock{
		Index:     len(lo.proc.Blocks),
		Proc:      lo.proc,
		Loop:      innermost,
		Line:      SourceLine{File: lo.file, Line: *lo.nextLine},
		Synthetic: synthetic,
	}
	*lo.nextLine++
	lo.proc.Blocks = append(lo.proc.Blocks, b)
	if innermost != nil {
		innermost.Blocks = append(innermost.Blocks, b)
	}
	return b
}

// syncBlock lowers one sync statement (spawn/join/send/recv) into a
// dedicated straight-line block holding exactly that instruction. The
// dedicated block gives the happens-before layer a crisp boundary: every
// block of the procedure lies entirely before or entirely after each
// synchronization point.
func (lo *lowerer) syncBlock(in Instr) *ExecBlock {
	b := lo.newBlock(false)
	b.Instrs = append(b.Instrs, in)
	return &ExecBlock{Block: b}
}

// lowerList lowers a statement list into its execution-tree nodes.
func (lo *lowerer) lowerList(stmts []Stmt) (nodes []ExecNode, err error) {
	var open *BasicBlock // current straight-line block accepting instructions

	ensureOpen := func() *BasicBlock {
		if open == nil {
			open = lo.newBlock(false)
			nodes = append(nodes, &ExecBlock{Block: open})
		}
		return open
	}

	for _, s := range stmts {
		switch s := s.(type) {
		case *AccessStmt:
			b := ensureOpen()
			b.Instrs = append(b.Instrs, Instr{Op: OpField, Struct: s.Struct, Field: s.Field, Acc: s.Acc, Inst: s.Inst})
		case *MemStmt:
			b := ensureOpen()
			b.Instrs = append(b.Instrs, Instr{Op: OpMem, Acc: s.Acc, Region: s.Region, Pattern: s.Pattern, Stride: s.Stride, Offset: s.Offset})
		case *ComputeStmt:
			b := ensureOpen()
			b.Instrs = append(b.Instrs, Instr{Op: OpCompute, Cycles: s.Cycles})
		case *LockStmt:
			b := ensureOpen()
			b.Instrs = append(b.Instrs, Instr{Op: OpLock, Struct: s.Struct, Field: s.Field, Acc: Write, Inst: s.Inst})
		case *UnlockStmt:
			b := ensureOpen()
			b.Instrs = append(b.Instrs, Instr{Op: OpUnlock, Struct: s.Struct, Field: s.Field, Acc: Write, Inst: s.Inst})
		case *CallStmt:
			b := ensureOpen()
			b.Instrs = append(b.Instrs, Instr{Op: OpCall, Callee: s.Callee})
		case *SpawnStmt:
			open = nil
			nodes = append(nodes, lo.syncBlock(Instr{Op: OpSpawn, Handle: s.Handle, Callee: s.Callee, SpawnCPU: s.CPU, SpawnParams: s.Params}))
		case *JoinStmt:
			open = nil
			nodes = append(nodes, lo.syncBlock(Instr{Op: OpJoin, Handle: s.Handle}))
		case *SendStmt:
			open = nil
			nodes = append(nodes, lo.syncBlock(Instr{Op: OpSend, Chan: s.Chan}))
		case *RecvStmt:
			open = nil
			nodes = append(nodes, lo.syncBlock(Instr{Op: OpRecv, Chan: s.Chan}))
		case *LoopStmt:
			if len(s.Body) == 0 {
				return nil, fmt.Errorf("empty loop body in %s", lo.proc.Name)
			}
			open = nil
			loop := &Loop{
				Index:     len(lo.proc.Loops),
				Proc:      lo.proc,
				TripCount: s.Count,
			}
			lo.proc.Loops = append(lo.proc.Loops, loop)
			lo.loops = append(lo.loops, loop)
			loop.Header = lo.newBlock(true)
			body, err := lo.lowerList(s.Body)
			if err != nil {
				return nil, err
			}
			lo.loops = lo.loops[:len(lo.loops)-1]
			nodes = append(nodes, &ExecLoop{Loop: loop, Count: s.Count, Body: body})
		case *IfStmt:
			open = nil
			cond := lo.newBlock(true)
			then, err := lo.lowerList(s.Then)
			if err != nil {
				return nil, err
			}
			els, err := lo.lowerList(s.Else)
			if err != nil {
				return nil, err
			}
			join := lo.newBlock(true)
			nodes = append(nodes, &ExecIf{Prob: s.Prob, Cond: cond, Join: join, Then: then, Else: els})
		default:
			return nil, fmt.Errorf("unknown statement type %T in %s", s, lo.proc.Name)
		}
	}
	return nodes, nil
}
