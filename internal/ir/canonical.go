package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Canonical returns a deterministic, semantically complete serialization of
// the program, suitable for content-addressed memoization keys. Two
// programs with equal canonical forms behave identically under the
// interpreter and every analysis: the walk covers struct shapes, regions,
// and the full structured AST of every procedure — including branch
// probabilities and which statements sit in which arm, which Dump omits.
//
// The walk is over the builder-facing AST (Procedure.Body), not the lowered
// blocks, so it works on both finalized and unfinalized programs and is
// independent of block-numbering details. Floats render via the shortest
// round-trip formatting, so distinct probabilities never collide.
func Canonical(p *Program) string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("program ")
	b.WriteString(p.Name)
	b.WriteByte('\n')
	for _, s := range p.Structs {
		fmt.Fprintf(&b, "struct %s {", s.Name)
		for _, f := range s.Fields {
			fmt.Fprintf(&b, " %s:%d:%d", f.Name, f.Size, f.Align)
		}
		b.WriteString(" }\n")
	}
	for _, r := range p.Regions {
		fmt.Fprintf(&b, "region %s %d perthread=%t\n", r.Name, r.Bytes, r.PerThread)
	}
	for _, pr := range p.Procs {
		fmt.Fprintf(&b, "proc %s {\n", pr.Name)
		canonStmts(&b, pr.Body, 1)
		b.WriteString("}\n")
	}
	return b.String()
}

func canonStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *AccessStmt:
			fmt.Fprintf(b, "%s%s %s.%d %s\n", ind, s.Acc, structName(s.Struct), s.Field, s.Inst)
		case *MemStmt:
			fmt.Fprintf(b, "%smem %s %s pat=%d stride=%d off=%d\n", ind, s.Acc, s.Region, s.Pattern, s.Stride, s.Offset)
		case *ComputeStmt:
			fmt.Fprintf(b, "%scompute %d\n", ind, s.Cycles)
		case *LockStmt:
			fmt.Fprintf(b, "%slock %s.%d %s\n", ind, structName(s.Struct), s.Field, s.Inst)
		case *UnlockStmt:
			fmt.Fprintf(b, "%sunlock %s.%d %s\n", ind, structName(s.Struct), s.Field, s.Inst)
		case *CallStmt:
			fmt.Fprintf(b, "%scall %s\n", ind, s.Callee)
		case *SpawnStmt:
			fmt.Fprintf(b, "%sspawn %s cpu=%d %s params=%v\n", ind, s.Handle, s.CPU, s.Callee, s.Params)
		case *JoinStmt:
			fmt.Fprintf(b, "%sjoin %s\n", ind, s.Handle)
		case *SendStmt:
			fmt.Fprintf(b, "%ssend %s\n", ind, s.Chan)
		case *RecvStmt:
			fmt.Fprintf(b, "%srecv %s\n", ind, s.Chan)
		case *LoopStmt:
			fmt.Fprintf(b, "%sloop %d {\n", ind, s.Count)
			canonStmts(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *IfStmt:
			fmt.Fprintf(b, "%sif %s {\n", ind, strconv.FormatFloat(s.Prob, 'g', -1, 64))
			canonStmts(b, s.Then, depth+1)
			fmt.Fprintf(b, "%s} else {\n", ind)
			canonStmts(b, s.Else, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case nil:
			fmt.Fprintf(b, "%snil\n", ind)
		default:
			fmt.Fprintf(b, "%s?%T\n", ind, s)
		}
	}
}

func structName(s *StructType) string {
	if s == nil {
		return "<nil>"
	}
	return s.Name
}
