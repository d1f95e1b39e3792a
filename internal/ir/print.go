package ir

import (
	"fmt"
	"strings"
)

// Dump renders the program for debugging and golden tests: each
// procedure's blocks with line numbers, innermost loops and instructions,
// then its loops.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, s := range p.Structs {
		b.WriteString(s.Dump())
	}
	for _, r := range p.Regions {
		scope := "shared"
		if r.PerThread {
			scope = "per-thread"
		}
		fmt.Fprintf(&b, "region %s [%d bytes, %s]\n", r.Name, r.Bytes, scope)
	}
	for _, pr := range p.Procs {
		b.WriteString(pr.Dump())
	}
	return b.String()
}

// Dump renders one procedure's blocks and loops.
func (pr *Procedure) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc %s\n", pr.Name)
	for _, blk := range pr.Blocks {
		tags := ""
		if blk.Synthetic {
			tags += " synthetic"
		}
		if blk.Loop != nil {
			tags += " loop=" + blk.Loop.Name()
		}
		fmt.Fprintf(&b, "  #%d line=%s%s\n", blk.Index, blk.Line, tags)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "    %s\n", in)
		}
	}
	for _, l := range pr.Loops {
		fmt.Fprintf(&b, "  loop %s header=#%d trip=%d blocks=%d\n", l.Name(), l.Header.Index, l.TripCount, len(l.Blocks))
	}
	return b.String()
}
