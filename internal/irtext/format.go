package irtext

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/ir"
)

// Format serializes a parsed file back to irtext syntax. Parsing the output
// yields a program whose lowered dump is identical (the round trip is exact
// up to whitespace and comments).
func Format(f *File) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n\n", f.Prog.Name)
	for _, st := range f.Prog.Structs {
		formatStruct(&b, st)
	}
	for _, r := range f.Prog.Regions {
		scope := "shared"
		if r.PerThread {
			scope = "perthread"
		}
		fmt.Fprintf(&b, "region %s %d %s\n", r.Name, r.Bytes, scope)
	}
	if len(f.Prog.Regions) > 0 {
		b.WriteString("\n")
	}
	for _, pr := range f.Prog.Procs {
		fmt.Fprintf(&b, "proc %s {\n", pr.Name)
		formatStmts(&b, pr.Body, 1)
		b.WriteString("}\n\n")
	}
	// Deterministic arena order.
	arenas := make([]string, 0, len(f.Arenas))
	for name := range f.Arenas {
		arenas = append(arenas, name)
	}
	sort.Strings(arenas)
	for _, name := range arenas {
		fmt.Fprintf(&b, "arena %s %d\n", name, f.Arenas[name])
	}
	for _, td := range f.Threads {
		fmt.Fprintf(&b, "thread %d %s", td.CPU, td.Proc)
		if len(td.Params) > 0 {
			b.WriteString(" params")
			for _, p := range td.Params {
				fmt.Fprintf(&b, " %d", p)
			}
		}
		fmt.Fprintf(&b, " iters %d\n", td.Iters)
	}
	return b.String()
}

func formatStruct(b *strings.Builder, st *ir.StructType) {
	fmt.Fprintf(b, "struct %s {\n", st.Name)
	for _, f := range st.Fields {
		fmt.Fprintf(b, "    %-24s %s\n", f.Name, fieldTypeText(f))
	}
	b.WriteString("}\n\n")
}

// fieldTypeText recovers the declaration syntax for a field. Scalar widths
// map back to their keywords; anything else round-trips through arr/pad.
func fieldTypeText(f ir.Field) string {
	switch {
	case f.Size == 1 && f.Align == 1:
		return "i8"
	case f.Size == 2 && f.Align == 2:
		return "i16"
	case f.Size == 4 && f.Align == 4:
		return "i32"
	case f.Size == 8 && f.Align == 8:
		return "i64"
	case f.Align == 1:
		return fmt.Sprintf("pad %d", f.Size)
	default:
		return fmt.Sprintf("arr %d 1 align %d", f.Size, f.Align)
	}
}

func formatStmts(b *strings.Builder, stmts []ir.Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.AccessStmt:
			kw := "read"
			if s.Acc == ir.Write {
				kw = "write"
			}
			fmt.Fprintf(b, "%s%s %s.%s %s\n", ind, kw, s.Struct.Name, s.Struct.Fields[s.Field].Name, instText(s.Inst))
		case *ir.LockStmt:
			fmt.Fprintf(b, "%slock %s.%s %s\n", ind, s.Struct.Name, s.Struct.Fields[s.Field].Name, instText(s.Inst))
		case *ir.UnlockStmt:
			fmt.Fprintf(b, "%sunlock %s.%s %s\n", ind, s.Struct.Name, s.Struct.Fields[s.Field].Name, instText(s.Inst))
		case *ir.ComputeStmt:
			fmt.Fprintf(b, "%scompute %d\n", ind, s.Cycles)
		case *ir.CallStmt:
			fmt.Fprintf(b, "%scall %s\n", ind, s.Callee)
		case *ir.SpawnStmt:
			fmt.Fprintf(b, "%sspawn %s %d %s", ind, s.Handle, s.CPU, s.Callee)
			if len(s.Params) > 0 {
				b.WriteString(" params")
				for _, n := range s.Params {
					fmt.Fprintf(b, " %d", n)
				}
			}
			b.WriteString("\n")
		case *ir.JoinStmt:
			fmt.Fprintf(b, "%sjoin %s\n", ind, s.Handle)
		case *ir.SendStmt:
			fmt.Fprintf(b, "%ssend %s\n", ind, s.Chan)
		case *ir.RecvStmt:
			fmt.Fprintf(b, "%srecv %s\n", ind, s.Chan)
		case *ir.LoopStmt:
			fmt.Fprintf(b, "%sloop %d {\n", ind, s.Count)
			formatStmts(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *ir.IfStmt:
			fmt.Fprintf(b, "%sif %g {\n", ind, s.Prob)
			formatStmts(b, s.Then, depth+1)
			fmt.Fprintf(b, "%s}", ind)
			if len(s.Else) > 0 {
				b.WriteString(" else {\n")
				formatStmts(b, s.Else, depth+1)
				fmt.Fprintf(b, "%s}", ind)
			}
			b.WriteString("\n")
		case *ir.MemStmt:
			acc := "read"
			if s.Acc == ir.Write {
				acc = "write"
			}
			switch s.Pattern {
			case ir.MemSeq:
				fmt.Fprintf(b, "%smemsweep %s %s %d\n", ind, s.Region, acc, s.Stride)
			case ir.MemFixed:
				fmt.Fprintf(b, "%smemat %s %s %d\n", ind, s.Region, acc, s.Offset)
			case ir.MemRand:
				fmt.Fprintf(b, "%smemrand %s %s\n", ind, s.Region, acc)
			}
		}
	}
}

func instText(e ir.InstExpr) string {
	switch e.Kind {
	case ir.InstShared:
		return fmt.Sprintf("shared %d", e.Index)
	case ir.InstPerCPU:
		return "percpu"
	case ir.InstParam:
		return fmt.Sprintf("param %d", e.Index)
	case ir.InstLoopVar:
		return "loopvar"
	default:
		return "?"
	}
}
