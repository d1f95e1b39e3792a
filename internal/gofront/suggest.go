package gofront

import (
	"fmt"
	"go/token"
	"strings"

	"structlayout/internal/layout"
	"structlayout/internal/staticshare"
)

// Suggestion is a fieldalignment-style rewrite for one struct: a unified
// diff from the declared field order to an order where every pair of
// fields with certain write-sharing lands on distinct coherence lines.
type Suggestion struct {
	// Struct is the Go type name the diff applies to.
	Struct string
	Diff   string
}

// Suggest derives reordering diffs for the structs whose declaration
// order co-locates certainly-write-shared field pairs on one coherence
// line. Output order follows Model.Structs (declaration order), so it is
// deterministic.
func Suggest(model *Model, res *staticshare.Result, lineSize int) []Suggestion {
	if model == nil || res == nil || lineSize <= 0 {
		return nil
	}
	var out []Suggestion
	for _, def := range model.Structs {
		// The synthetic package-locks struct has no Go declaration to
		// rewrite; the same guard covers any future synthetic structs.
		if !token.IsIdentifier(def.GoName) {
			continue
		}
		s := suggestStruct(def, res.Pairs[def.Name], lineSize)
		if s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// suggestStruct builds one suggestion, or nil when the declared order
// already separates every conflicting pair.
func suggestStruct(def *StructDef, pairs map[[2]int]staticshare.PairInfo, lineSize int) *Suggestion {
	n := len(def.IR.Fields)
	if n < 2 || len(pairs) == 0 {
		return nil
	}
	decl, err := layout.Original(def.IR, lineSize)
	if err != nil {
		return nil
	}
	conflict := make([][]bool, n)
	for i := range conflict {
		conflict[i] = make([]bool, n)
	}
	hot := false
	for k, info := range pairs {
		if info.Class != staticshare.WriteShared || !info.Certain {
			continue
		}
		i, j := k[0], k[1]
		if i < 0 || j < 0 || i >= n || j >= n || i == j {
			continue
		}
		conflict[i][j], conflict[j][i] = true, true
		if decl.LineOf(i) == decl.LineOf(j) {
			hot = true // a conflicting pair shares a line as declared
		}
	}
	if !hot {
		return nil
	}

	// Greedy line packing in declaration order: each field joins the
	// first group holding no field it conflicts with. Groups are then
	// emitted back to back with padding up to the next line boundary
	// between them, so distinct groups occupy distinct coherence lines.
	var groups [][]int
place:
	for i := 0; i < n; i++ {
		for g := range groups {
			ok := true
			for _, j := range groups[g] {
				if conflict[i][j] {
					ok = false
					break
				}
			}
			if ok {
				groups[g] = append(groups[g], i)
				continue place
			}
		}
		groups = append(groups, []int{i})
	}
	if len(groups) < 2 {
		return nil // conflicts exist but cannot be separated by reordering
	}
	return &Suggestion{Struct: def.GoName, Diff: renderDiff(def, groups, lineSize)}
}

func alignUp(off, align int) int {
	if align <= 1 {
		return off
	}
	return (off + align - 1) / align * align
}

// renderDiff renders the declared order against the grouped order as a
// unified-style diff of the struct body, with an explicit pad field at
// each group seam that does not already fall on a line boundary.
func renderDiff(def *StructDef, groups [][]int, lineSize int) string {
	type row struct{ name, typ string }
	oldRows := make([]row, 0, len(def.IR.Fields))
	for i := range def.IR.Fields {
		oldRows = append(oldRows, row{fieldGoName(def, i), fieldGoType(def, i)})
	}
	var newRows []row
	off := 0
	for _, group := range groups {
		// Pad to the next line boundary so this group cannot share a
		// line with the previous one (the first group starts at 0).
		if pad := alignUp(off, lineSize) - off; pad > 0 {
			newRows = append(newRows, row{"_", fmt.Sprintf("[%d]byte", pad)})
			off += pad
		}
		for _, i := range group {
			f := def.IR.Fields[i]
			off = alignUp(off, f.Align)
			newRows = append(newRows, row{fieldGoName(def, i), fieldGoType(def, i)})
			off += f.Size
		}
	}
	width := 0
	for _, r := range append(append([]row{}, oldRows...), newRows...) {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s (declared)\n", def.GoName)
	fmt.Fprintf(&b, "+++ %s (suggested, %d-byte lines)\n", def.GoName, lineSize)
	fmt.Fprintf(&b, " type %s struct {\n", def.GoName)
	for _, r := range oldRows {
		fmt.Fprintf(&b, "-\t%-*s %s\n", width, r.name, r.typ)
	}
	for _, r := range newRows {
		fmt.Fprintf(&b, "+\t%-*s %s\n", width, r.name, r.typ)
	}
	b.WriteString(" }\n")
	return b.String()
}

func fieldGoName(def *StructDef, i int) string {
	if i < len(def.FieldNames) && def.FieldNames[i] != "" {
		return def.FieldNames[i]
	}
	return def.IR.Fields[i].Name
}

func fieldGoType(def *StructDef, i int) string {
	if i < len(def.FieldTypes) && def.FieldTypes[i] != "" {
		return def.FieldTypes[i]
	}
	return fmt.Sprintf("[%d]byte", def.IR.Fields[i].Size)
}
