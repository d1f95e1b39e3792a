// Package flg builds the paper's Field Layout Graph (§2): a weighted
// undirected graph over one struct's fields where
//
//	w(f1, f2) = CycleGain(f1, f2) − CycleLoss(f1, f2)
//
// CycleGain comes from the affinity graph (k1 × affinity, §3.1/§4.1);
// CycleLoss comes from CodeConcurrency joined with the field mapping file
// (§3.2/§4.3): for every pair of blocks (B1, B2) where B1 accesses f1, B2
// accesses f2, and at least one of the two accesses is a write,
//
//	CycleLoss(f1, f2) = k2 × Σ CC(B1, B2).
//
// The paper notes this over-approximates false sharing because it cannot
// distinguish struct instances; an optional alias oracle reproduces the
// suggested mitigation ("whenever alias analysis determines that the
// addresses of two structure instances do not alias ... no false sharing").
package flg

import (
	"sort"

	"structlayout/internal/affinity"
	"structlayout/internal/concurrency"
	"structlayout/internal/diag"
	"structlayout/internal/fieldmap"
	"structlayout/internal/ir"
)

// Options tunes graph construction. K1 and K2 are the paper's tunable
// constants; zero values take defaults.
type Options struct {
	// K1 scales CycleGain (default 1).
	K1 float64
	// K2 scales CycleLoss (default 1). Larger K2 separates false-sharing
	// fields more aggressively at the cost of locality; the ablation bench
	// sweeps it.
	K2 float64
	// AliasOracle, when non-nil, reports that two blocks are known to only
	// ever touch distinct instances of the struct, suppressing their
	// CycleLoss contribution.
	AliasOracle func(b1, b2 ir.BlockID) bool
	// Diag, when non-nil, receives graph-construction observations:
	// missing CycleLoss inputs (affinity-only graph) and concurrency
	// evidence that could not be joined with the FMF.
	Diag *diag.Log
}

// Calibrated returns the k1/k2 every tool surface runs with (the
// experiments, layoutd and layouttool). They balance profiled CycleGain
// against sampled CycleLoss: profile counts run ~2-3 orders of magnitude
// above sample counts, and k1=4 keeps moderate real affinities (e.g. a
// lock with the fields it guards) from being shattered by tiny sampled
// concurrency, while leaving gain-free pairs (the per-class statistics
// counters) fully separated.
func Calibrated() Options { return Options{K1: 4, K2: 1} }

func (o *Options) fillDefaults() {
	if o.K1 == 0 {
		o.K1 = 1
	}
	if o.K2 == 0 {
		o.K2 = 1
	}
}

// Edge is one weighted field pair, for reports.
type Edge struct {
	F1, F2 int
	Gain   float64
	Loss   float64
}

// Weight is the net edge weight.
func (e Edge) Weight() float64 { return e.Gain - e.Loss }

// Graph is the Field Layout Graph of one struct.
type Graph struct {
	Struct *ir.StructType
	// Gain and Loss hold the scaled components per canonical pair.
	Gain map[[2]int]float64
	Loss map[[2]int]float64
	// Hotness orders fields for the clustering seed choice.
	Hotness map[int]float64
	// Affinity retains the underlying affinity graph for reports.
	Affinity *affinity.Graph
}

// Build combines the affinity graph with the concurrency map and FMF into
// the FLG.
func Build(ag *affinity.Graph, cm *concurrency.Map, fmf *fieldmap.File, opts Options) *Graph {
	opts.fillDefaults()
	g := &Graph{
		Struct:   ag.Struct,
		Gain:     make(map[[2]int]float64, len(ag.Weights)),
		Loss:     make(map[[2]int]float64),
		Hotness:  ag.Hotness,
		Affinity: ag,
	}
	for k, w := range ag.Weights {
		g.Gain[k] = opts.K1 * w
	}
	if cm != nil && fmf != nil {
		g.addCycleLoss(cm, fmf, opts)
	} else {
		opts.Diag.Add(diag.Degraded, "flg", "no-cycleloss",
			"struct %s: concurrency map or FMF unavailable; graph carries CycleGain only", g.Struct.Name)
	}
	return g
}

// addCycleLoss joins the concurrency map with the FMF.
func (g *Graph) addCycleLoss(cm *concurrency.Map, fmf *fieldmap.File, opts Options) {
	touching := fmf.BlocksTouching(g.Struct.Name)
	if len(touching) == 0 {
		opts.Diag.Add(diag.Info, "flg", "no-fmf-blocks",
			"struct %s: FMF lists no blocks touching it; CycleLoss is zero", g.Struct.Name)
		return
	}
	// Deterministic block order.
	blocks := make([]ir.BlockID, 0, len(touching))
	for b := range touching {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })

	for i, b1 := range blocks {
		for j := i; j < len(blocks); j++ {
			b2 := blocks[j]
			cc := cm.Value(b1, b2)
			if cc == 0 {
				continue
			}
			if opts.AliasOracle != nil && opts.AliasOracle(b1, b2) {
				continue
			}
			e1, e2 := touching[b1], touching[b2]
			for _, a1 := range e1 {
				for _, a2 := range e2 {
					if a1.Acc != ir.Write && a2.Acc != ir.Write {
						continue // false sharing needs at least one write
					}
					if a1.Field == a2.Field {
						// Same field concurrently accessed is true sharing
						// (or per-instance traffic); layout cannot separate
						// a field from itself.
						continue
					}
					g.Loss[affinity.PairKey(a1.Field, a2.Field)] += opts.K2 * cc
				}
			}
		}
	}
}

// Weight returns the net edge weight between two fields.
func (g *Graph) Weight(a, b int) float64 {
	if a == b {
		return 0
	}
	k := affinity.PairKey(a, b)
	return g.Gain[k] - g.Loss[k]
}

// Edges returns all edges with a non-zero component, sorted by descending
// net weight (stable field-pair tiebreak).
func (g *Graph) Edges() []Edge {
	keys := make(map[[2]int]bool, len(g.Gain)+len(g.Loss))
	for k := range g.Gain {
		keys[k] = true
	}
	for k := range g.Loss {
		keys[k] = true
	}
	edges := make([]Edge, 0, len(keys))
	for k := range keys {
		edges = append(edges, Edge{F1: k[0], F2: k[1], Gain: g.Gain[k], Loss: g.Loss[k]})
	}
	sort.Slice(edges, func(i, j int) bool {
		wi, wj := edges[i].Weight(), edges[j].Weight()
		if wi != wj {
			return wi > wj
		}
		if edges[i].F1 != edges[j].F1 {
			return edges[i].F1 < edges[j].F1
		}
		return edges[i].F2 < edges[j].F2
	})
	return edges
}

// NegativeEdges returns every edge with negative net weight.
func (g *Graph) NegativeEdges() []Edge {
	var out []Edge
	for _, e := range g.Edges() {
		if e.Weight() < 0 {
			out = append(out, e)
		}
	}
	return out
}

// ImportantEdges implements the §5.2 filter: all negative edges plus the
// topK positive edges (the paper uses 20).
func (g *Graph) ImportantEdges(topK int) []Edge {
	edges := g.Edges()
	var out []Edge
	positives := 0
	for _, e := range edges {
		switch {
		case e.Weight() < 0:
			out = append(out, e)
		case e.Weight() > 0 && positives < topK:
			out = append(out, e)
			positives++
		}
	}
	return out
}

// Subgraph builds a reduced FLG containing only the given edges; nodes with
// zero degree disappear (they keep their hotness for seed ordering). Used
// by the incremental/"best performance" mode (§5.2).
func (g *Graph) Subgraph(edges []Edge) *Graph {
	sg := &Graph{
		Struct:   g.Struct,
		Gain:     make(map[[2]int]float64, len(edges)),
		Loss:     make(map[[2]int]float64, len(edges)),
		Hotness:  g.Hotness,
		Affinity: g.Affinity,
	}
	for _, e := range edges {
		k := affinity.PairKey(e.F1, e.F2)
		if e.Gain != 0 {
			sg.Gain[k] = e.Gain
		}
		if e.Loss != 0 {
			sg.Loss[k] = e.Loss
		}
	}
	return sg
}

// Nodes returns the fields with at least one incident edge, ascending.
func (g *Graph) Nodes() []int {
	set := make(map[int]bool)
	for k := range g.Gain {
		set[k[0]] = true
		set[k[1]] = true
	}
	for k := range g.Loss {
		set[k[0]] = true
		set[k[1]] = true
	}
	out := make([]int, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}
