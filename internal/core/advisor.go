package core

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/layout"
	"structlayout/internal/profile"
)

// StructRank scores one struct's optimization potential.
type StructRank struct {
	Name string
	// Hotness is the struct's total dynamic reference count.
	Hotness float64
	// NegativeMass is the sum of |negative FLG edge weights|: how much
	// predicted false sharing its current field population carries.
	NegativeMass float64
	// Fields and Lines describe its shape under the original layout.
	Fields int
	Lines  int
}

// Score orders candidates: false-sharing hazard first, then hotness.
func (r StructRank) Score() float64 { return r.NegativeMass*1000 + r.Hotness }

// RankStructs scores every struct in the program — the paper's §5.1 step
// "we identify certain key structures in the kernel based on their
// hotness", extended with the FLG's predicted false-sharing mass so that
// hazard-carrying structs surface even when cooler. Structs whose layout
// would fit in a single cache line are skipped ("we only consider those
// structures whose layout after transformation span multiple cache lines").
func (a *Analysis) RankStructs() ([]StructRank, error) {
	var out []StructRank
	counts := profile.ProgramFieldCounts(a.Prog, a.Profile)
	for _, st := range a.Prog.StructsSorted() {
		orig, err := layout.Original(st, a.Opts.LineSize)
		if err != nil {
			return nil, err
		}
		if orig.NumLines() < 2 {
			continue
		}
		g, err := a.BuildFLG(st.Name)
		if err != nil {
			return nil, err
		}
		r := StructRank{Name: st.Name, Fields: st.NumFields(), Lines: orig.NumLines()}
		for fi := range st.Fields {
			r.Hotness += counts[profile.FieldKey{Struct: st.Name, Field: fi}].Total()
		}
		for _, e := range g.Edges() {
			if e.Weight() < 0 {
				r.NegativeMass += -e.Weight()
			}
		}
		if r.Hotness == 0 {
			continue // never touched; nothing to optimize
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score() != out[j].Score() {
			return out[i].Score() > out[j].Score()
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// RankReport renders the ranking table.
func RankReport(ranks []StructRank) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %12s %14s %8s %7s %12s\n", "struct", "hotness", "neg-edge-mass", "fields", "lines", "score")
	for _, r := range ranks {
		fmt.Fprintf(&sb, "%-24s %12.4g %14.4g %8d %7d %12.4g\n",
			r.Name, r.Hotness, r.NegativeMass, r.Fields, r.Lines, r.Score())
	}
	return sb.String()
}
