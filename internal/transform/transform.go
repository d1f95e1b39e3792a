// Package transform implements the classic single-threaded structure
// transformations the paper positions itself against (§1: "structure
// splitting, structure peeling, field reordering, dead field removal") as
// advisories over the same profile data the layout tool consumes. Field
// reordering is the main tool (internal/core); this package covers the
// rest:
//
//   - dead-field removal: fields with zero dynamic references,
//   - hot/cold structure splitting (peeling): move rarely-referenced
//     fields into a separate cold sub-structure reached by pointer,
//     shrinking the hot working set.
//
// Like the paper's tool, these are advisories: C-level legality (address
// arithmetic, casts, ABI) cannot be proven here, so a programmer applies
// them. The advisory quantifies the footprint effect so the decision is
// informed.
package transform

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/affinity"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/profile"
)

// SplitAdvice is the hot/cold splitting advisory for one struct.
type SplitAdvice struct {
	Struct *ir.StructType
	// Hot and Cold partition the field indices.
	Hot, Cold []int
	// Dead are the cold fields with exactly zero references (removal
	// candidates, a subset of Cold).
	Dead []int
	// HotBytes and ColdBytes are dense sizes of the two parts; the hot
	// part gains one pointer to reach the cold part.
	HotBytes, ColdBytes int
	// HotLines and OrigLines compare cache-line footprints per instance at
	// the advisory's line size (the hot part includes the cold pointer).
	HotLines, OrigLines int
	// CutWeight is the total affinity weight between hot and cold fields —
	// locality the split would destroy. A good split has a small cut.
	CutWeight float64
}

// coldFraction: a field is cold when its dynamic reference count is at
// most this fraction of the struct's hottest field.
const coldFraction = 0.01

// Split computes the hot/cold advisory for one struct from a profile, with
// footprints counted in lines of lineSize bytes and the cut weighted by
// the struct's affinity graph over the same program and profile.
func Split(p *ir.Program, pf *profile.Profile, st *ir.StructType, lineSize int) (*SplitAdvice, error) {
	counts := profile.ProgramFieldCounts(p, pf)
	hotness := make([]float64, len(st.Fields))
	var max float64
	for fi := range st.Fields {
		hotness[fi] = counts[profile.FieldKey{Struct: st.Name, Field: fi}].Total()
		if hotness[fi] > max {
			max = hotness[fi]
		}
	}
	adv := &SplitAdvice{Struct: st}
	threshold := max * coldFraction
	for fi, f := range st.Fields {
		switch {
		case hotness[fi] == 0:
			adv.Dead = append(adv.Dead, fi)
			adv.Cold = append(adv.Cold, fi)
			adv.ColdBytes += f.Size
		case hotness[fi] <= threshold:
			adv.Cold = append(adv.Cold, fi)
			adv.ColdBytes += f.Size
		default:
			adv.Hot = append(adv.Hot, fi)
			adv.HotBytes += f.Size
		}
	}
	// The hot part needs a pointer to the cold part (peeling), unless
	// nothing is cold.
	hotBytesWithPtr := adv.HotBytes
	if len(adv.Cold) > 0 {
		hotBytesWithPtr += 8
	}
	adv.HotLines = (hotBytesWithPtr + lineSize - 1) / lineSize
	orig, err := layout.Original(st, lineSize)
	if err != nil {
		return nil, err
	}
	adv.OrigLines = orig.NumLines()
	if adv.HotLines == 0 {
		adv.HotLines = 1
	}
	ag := affinity.Build(p, pf, st)
	for _, h := range adv.Hot {
		for _, c := range adv.Cold {
			adv.CutWeight += ag.Weight(h, c)
		}
	}
	sort.Ints(adv.Hot)
	sort.Ints(adv.Cold)
	sort.Ints(adv.Dead)
	return adv, nil
}

// Worthwhile reports whether the split shrinks the hot footprint at all.
func (a *SplitAdvice) Worthwhile() bool {
	return len(a.Cold) > 0 && a.HotLines < a.OrigLines
}

// String renders the advisory.
func (a *SplitAdvice) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hot/cold split advisory for struct %s\n", a.Struct.Name)
	fmt.Fprintf(&sb, "  hot: %d fields, %d bytes -> %d lines (from %d)\n",
		len(a.Hot), a.HotBytes, a.HotLines, a.OrigLines)
	fmt.Fprintf(&sb, "  cold: %d fields, %d bytes (reached via pointer)\n", len(a.Cold), a.ColdBytes)
	if len(a.Dead) > 0 {
		fmt.Fprintf(&sb, "  dead (never referenced):")
		for _, fi := range a.Dead {
			fmt.Fprintf(&sb, " %s", a.Struct.Fields[fi].Name)
		}
		fmt.Fprintln(&sb)
	}
	fmt.Fprintf(&sb, "  affinity cut by the split: %.6g\n", a.CutWeight)
	if a.Worthwhile() {
		fmt.Fprintf(&sb, "  verdict: worthwhile (hot working set shrinks %d -> %d lines)\n", a.OrigLines, a.HotLines)
	} else {
		fmt.Fprintf(&sb, "  verdict: not worthwhile\n")
	}
	return sb.String()
}
