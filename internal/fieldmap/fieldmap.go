// Package fieldmap builds the paper's Field Mapping File (FMF, §4.3): a map
// from source lines to the struct fields accessed in the basic blocks
// behind those lines, with read/write flags. The concurrency pipeline joins
// this file with the Concurrency Map to turn block-level concurrency into
// field-level CycleLoss.
//
// In the paper the FMF is emitted by a new compiler component and written
// to disk for an external script; this package provides the in-memory
// index and the line-oriented text form layouttool -dump writes for
// inspection.
package fieldmap

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"structlayout/internal/ir"
)

// Entry is one field access within a source line's basic block.
type Entry struct {
	Struct string
	Field  int
	Acc    ir.AccessKind
}

// File maps source lines to their field accesses. Lines without field
// accesses do not appear.
type File struct {
	// Lines maps each source line to its accesses (static, per execution).
	Lines map[ir.SourceLine][]Entry
	// blocks maps each block to the same data for block-keyed consumers.
	blocks map[ir.BlockID][]Entry
}

// Build derives the FMF from the finalized program. Lock and unlock
// instructions count as writes of their field, consistent with
// BasicBlock.FieldInstrs.
func Build(p *ir.Program) *File {
	f := &File{
		Lines:  make(map[ir.SourceLine][]Entry),
		blocks: make(map[ir.BlockID][]Entry),
	}
	for _, b := range p.Blocks() {
		var entries []Entry
		for _, in := range b.FieldInstrs() {
			entries = append(entries, Entry{Struct: in.Struct.Name, Field: in.Field, Acc: in.Acc})
		}
		if entries != nil {
			f.Lines[b.Line] = entries
			f.blocks[b.Global] = entries
		}
	}
	return f
}

// FromLines builds a File from a line-keyed access table, reconstructing
// the block index through the program's line table. Lines that name no
// known block are kept in the line index only (a stale FMF may reference
// source lines the current program no longer has).
func FromLines(lines map[ir.SourceLine][]Entry, p *ir.Program) *File {
	f := &File{
		Lines:  make(map[ir.SourceLine][]Entry, len(lines)),
		blocks: make(map[ir.BlockID][]Entry, len(lines)),
	}
	table := p.LineTable()
	for loc, entries := range lines {
		f.Lines[loc] = entries
		if b, ok := table[loc]; ok {
			f.blocks[b.Global] = entries
		}
	}
	return f
}

// Filter returns a copy of the file containing only the lines keep accepts.
func (f *File) Filter(p *ir.Program, keep func(ir.SourceLine) bool) *File {
	lines := make(map[ir.SourceLine][]Entry, len(f.Lines))
	for loc, entries := range f.Lines {
		if keep(loc) {
			lines[loc] = entries
		}
	}
	return FromLines(lines, p)
}

// CoverageRatio reports the fraction of the program's field-touching
// blocks that the file has entries for. A complete FMF (as Build emits)
// covers 1.0; a stale or truncated one covers less, and the consuming
// pipeline uses the ratio to decide how much to trust CycleLoss joins.
// A program with no field-touching blocks is trivially fully covered.
func (f *File) CoverageRatio(p *ir.Program) float64 {
	total, covered := 0, 0
	for _, b := range p.Blocks() {
		if len(b.FieldInstrs()) == 0 {
			continue
		}
		total++
		if len(f.blocks[b.Global]) > 0 {
			covered++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(covered) / float64(total)
}

// AtBlock returns the accesses recorded for a block.
func (f *File) AtBlock(id ir.BlockID) []Entry { return f.blocks[id] }

// BlocksTouching returns, for one struct, every block that accesses it,
// with that block's accesses filtered to the struct. hasWrite reports
// whether the block writes any field of the struct.
func (f *File) BlocksTouching(structName string) map[ir.BlockID][]Entry {
	out := make(map[ir.BlockID][]Entry)
	for id, entries := range f.blocks {
		for _, e := range entries {
			if e.Struct == structName {
				out[id] = append(out[id], e)
			}
		}
	}
	return out
}

// WriteText serializes the file in the paper's "simple and easily parseable
// format": one line per source line, sorted, entries as struct.field/R|W.
func (f *File) WriteText(w io.Writer) error {
	lines := make([]ir.SourceLine, 0, len(f.Lines))
	for l := range f.Lines {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Less(lines[j]) })
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		fmt.Fprintf(bw, "%s:%d", l.File, l.Line)
		for _, e := range f.Lines[l] {
			fmt.Fprintf(bw, " %s.%d/%s", e.Struct, e.Field, e.Acc)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
