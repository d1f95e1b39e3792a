package irtext

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/ir"
)

// Format serializes a parsed file back to irtext syntax, one statement
// per instruction of each procedure's execution tree. Parsing the output
// yields a program whose dump is identical (the round trip is exact up to
// whitespace and comments).
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
		formatNodes(&b, pr.Tree, 1)
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

// formatNodes prints an execution tree as statements, one per
// instruction; the synthetic entry and exit blocks hold none.
func formatNodes(b *strings.Builder, nodes []ir.ExecNode, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			for _, in := range n.Block.Instrs {
				b.WriteString(ind)
				formatInstr(b, in)
				b.WriteString("\n")
			}
		case *ir.ExecLoop:
			fmt.Fprintf(b, "%sloop %d {\n", ind, n.Count)
			formatNodes(b, n.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *ir.ExecIf:
			fmt.Fprintf(b, "%sif %g {\n", ind, n.Prob)
			formatNodes(b, n.Then, depth+1)
			fmt.Fprintf(b, "%s}", ind)
			if len(n.Else) > 0 {
				b.WriteString(" else {\n")
				formatNodes(b, n.Else, depth+1)
				fmt.Fprintf(b, "%s}", ind)
			}
			b.WriteString("\n")
		}
	}
}

func formatInstr(b *strings.Builder, in ir.Instr) {
	acc := "read"
	if in.Acc == ir.Write {
		acc = "write"
	}
	switch in.Op {
	case ir.OpField:
		fmt.Fprintf(b, "%s %s.%s %s", acc, in.Struct.Name, in.Struct.Fields[in.Field].Name, instText(in.Inst))
	case ir.OpLock:
		fmt.Fprintf(b, "lock %s.%s %s", in.Struct.Name, in.Struct.Fields[in.Field].Name, instText(in.Inst))
	case ir.OpUnlock:
		fmt.Fprintf(b, "unlock %s.%s %s", in.Struct.Name, in.Struct.Fields[in.Field].Name, instText(in.Inst))
	case ir.OpCompute:
		fmt.Fprintf(b, "compute %d", in.Cycles)
	case ir.OpCall:
		fmt.Fprintf(b, "call %s", in.Callee)
	case ir.OpSpawn:
		fmt.Fprintf(b, "spawn %s %d %s", in.Handle, in.SpawnCPU, in.Callee)
		if len(in.SpawnParams) > 0 {
			b.WriteString(" params")
			for _, n := range in.SpawnParams {
				fmt.Fprintf(b, " %d", n)
			}
		}
	case ir.OpJoin:
		fmt.Fprintf(b, "join %s", in.Handle)
	case ir.OpSend:
		fmt.Fprintf(b, "send %s", in.Chan)
	case ir.OpRecv:
		fmt.Fprintf(b, "recv %s", in.Chan)
	case ir.OpMem:
		switch in.Pattern {
		case ir.MemSeq:
			fmt.Fprintf(b, "memsweep %s %s %d", in.Region, acc, in.Stride)
		case ir.MemFixed:
			fmt.Fprintf(b, "memat %s %s %d", in.Region, acc, in.Offset)
		case ir.MemRand:
			fmt.Fprintf(b, "memrand %s %s", in.Region, acc)
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
