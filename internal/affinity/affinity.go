// Package affinity implements the static/profile-based affinity analysis of
// §4.1, following the single-threaded framework of Hundt et al. (CGO'06)
// that the paper builds on:
//
//   - Fields are grouped into affinity groups: the fields accessed at the
//     same level of granularity — within one loop, or within one block of
//     straight-line code.
//   - Each group's weight is the execution frequency of that granularity
//     (the loop's ExecutionCount, or the block's frequency).
//   - Hotness of a field is its dynamic reference count.
//   - The Minimum Heuristic refines pair weights: within a loop, the
//     affinity of (f_i, f_j) is the minimum of the two fields' dynamic
//     access counts there, since the weight of any acyclic path containing
//     both is upper-bounded by that minimum.
//
// The paper's CycleGain approximations (§3.1) are applied here: only
// intra-procedural paths are considered (groups never span procedures) and
// MemoryDistance is assumed below threshold within a group. Loads and
// stores both count: the idealized model's store discount ("a store target
// gains nothing", §2) is not applied, as in the implemented pipeline of
// §4.1, whose Figure 5 keeps the write-write edge f1–f2.
package affinity

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/ir"
	"structlayout/internal/profile"
)

// GroupKind tells which granularity produced a group.
type GroupKind uint8

const (
	// LoopGroup covers the fields accessed within one loop.
	LoopGroup GroupKind = iota
	// StraightLineGroup covers the fields of one straight-line block
	// outside any loop.
	StraightLineGroup
)

// String names the kind.
func (k GroupKind) String() string {
	if k == LoopGroup {
		return "loop"
	}
	return "straight-line"
}

// Group is one affinity group of a single struct.
type Group struct {
	Kind GroupKind
	// Where identifies the loop or block for reports.
	Where string
	// Weight is the granularity's execution frequency: EC(L) or Freq(B).
	Weight float64
	// Counts holds each member field's dynamic access counts inside the
	// group.
	Counts map[int]profile.Counts
}

// Graph is the affinity graph of one struct: nodes are fields, edges are
// CycleGain estimates (unscaled; the FLG applies k1).
type Graph struct {
	Struct *ir.StructType
	// Weights maps canonical field pairs (i < j) to accumulated affinity.
	Weights map[[2]int]float64
	// Hotness is each field's program-wide dynamic reference count.
	Hotness map[int]float64
	// Reads and Writes are program-wide dynamic counts per field.
	Reads, Writes map[int]float64
	// Groups lists the affinity groups, for the tool's advisory report.
	Groups []Group
}

// PairKey canonicalizes a field pair.
func PairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Build computes the affinity graph of st over the whole program, using
// the profile for frequencies.
func Build(p *ir.Program, pf *profile.Profile, st *ir.StructType) *Graph {
	g := &Graph{
		Struct:  st,
		Weights: make(map[[2]int]float64),
		Hotness: make(map[int]float64),
		Reads:   make(map[int]float64),
		Writes:  make(map[int]float64),
	}
	for _, pr := range p.Procs {
		buildProc(g, pr, pf, st)
	}
	// Program-wide hotness and read/write counts.
	for _, b := range p.Blocks() {
		n := pf.BlockCount(b)
		if n == 0 {
			continue
		}
		for _, in := range b.FieldInstrs() {
			if in.Struct != st {
				continue
			}
			g.Hotness[in.Field] += n
			if in.Acc == ir.Read {
				g.Reads[in.Field] += n
			} else {
				g.Writes[in.Field] += n
			}
		}
	}
	return g
}

// buildProc adds one procedure's groups: one group per loop (fields in
// blocks whose innermost loop is that loop) and one per straight-line block
// outside loops. Loops group their own blocks only — a nested loop is its
// own, hotter granularity.
func buildProc(g *Graph, pr *ir.Procedure, pf *profile.Profile, st *ir.StructType) {
	for _, l := range pr.Loops {
		counts := make(map[int]profile.Counts)
		for _, b := range l.Blocks {
			addBlockCounts(counts, b, pf, st)
		}
		if len(counts) > 0 {
			g.addGroup(Group{Kind: LoopGroup, Where: l.Name(), Weight: pf.LoopEC(l), Counts: counts})
		}
	}
	for _, b := range pr.Blocks {
		if b.Loop != nil || b.Synthetic {
			continue
		}
		counts := make(map[int]profile.Counts)
		addBlockCounts(counts, b, pf, st)
		if len(counts) > 0 {
			g.addGroup(Group{Kind: StraightLineGroup, Where: b.Name(), Weight: pf.BlockCount(b), Counts: counts})
		}
	}
}

// addBlockCounts accumulates the block's dynamic field counts for st.
func addBlockCounts(counts map[int]profile.Counts, b *ir.BasicBlock, pf *profile.Profile, st *ir.StructType) {
	n := pf.BlockCount(b)
	if n == 0 {
		return
	}
	for _, in := range b.FieldInstrs() {
		if in.Struct != st {
			continue
		}
		c := counts[in.Field]
		if in.Acc == ir.Read {
			c.Reads += n
		} else {
			c.Writes += n
		}
		counts[in.Field] = c
	}
}

// addGroup folds a group's pairwise contributions into the graph, each
// pair weighted by the Minimum Heuristic (§4.1): the smaller of the two
// fields' access counts in the group.
func (g *Graph) addGroup(gr Group) {
	g.Groups = append(g.Groups, gr)
	fields := make([]int, 0, len(gr.Counts))
	for f := range gr.Counts {
		fields = append(fields, f)
	}
	sort.Ints(fields)
	for i := 0; i < len(fields); i++ {
		for j := i + 1; j < len(fields); j++ {
			fi, fj := fields[i], fields[j]
			w := gr.Counts[fi].Total()
			if t := gr.Counts[fj].Total(); t < w {
				w = t
			}
			if w > 0 {
				g.Weights[PairKey(fi, fj)] += w
			}
		}
	}
}

// Weight returns the affinity between two fields.
func (g *Graph) Weight(a, b int) float64 {
	if a == b {
		return 0
	}
	return g.Weights[PairKey(a, b)]
}

// HottestFirst returns all field indices sorted by descending hotness
// (field index breaks ties), including fields never accessed.
func (g *Graph) HottestFirst() []int {
	order := make([]int, len(g.Struct.Fields))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ha, hb := g.Hotness[order[a]], g.Hotness[order[b]]
		if ha != hb {
			return ha > hb
		}
		return order[a] < order[b]
	})
	return order
}

// Dump renders the advisory report: per-field hotness and R/W counts, then
// edges sorted by weight — the format "serves as input to a variety of
// scripts" in the paper's compiler (§4.1).
func (g *Graph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "affinity graph for struct %s\n", g.Struct.Name)
	for _, fi := range g.HottestFirst() {
		f := g.Struct.Fields[fi]
		fmt.Fprintf(&sb, "  field %-20s hot=%.6g R=%.6g W=%.6g\n",
			f.Name, g.Hotness[fi], g.Reads[fi], g.Writes[fi])
	}
	type edge struct {
		k [2]int
		w float64
	}
	edges := make([]edge, 0, len(g.Weights))
	for k, w := range g.Weights {
		edges = append(edges, edge{k, w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		return edges[i].k[0] < edges[j].k[0] || (edges[i].k[0] == edges[j].k[0] && edges[i].k[1] < edges[j].k[1])
	})
	for _, e := range edges {
		fmt.Fprintf(&sb, "  edge %s -- %s  w=%.6g\n",
			g.Struct.Fields[e.k[0]].Name, g.Struct.Fields[e.k[1]].Name, e.w)
	}
	for _, gr := range g.Groups {
		fmt.Fprintf(&sb, "  group %-14s %-20s weight=%.6g fields=%d\n", gr.Kind, gr.Where, gr.Weight, len(gr.Counts))
	}
	return sb.String()
}
