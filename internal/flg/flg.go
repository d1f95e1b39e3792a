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

// Edge is one weighted field pair: the FLG's per-pair store entry.
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
	// Pairs holds the scaled gain and loss of every pair with an edge,
	// keyed by the canonical pair (affinity.PairKey).
	Pairs map[[2]int]Edge
	// Affinity retains the underlying affinity graph: its Hotness orders
	// fields for the clustering seed choice.
	Affinity *affinity.Graph
	// edges is Edges()'s order, computed on its first call.
	edges []Edge
}

// Build combines the affinity graph with the concurrency map and FMF into
// the FLG.
func Build(ag *affinity.Graph, cm *concurrency.Map, fmf *fieldmap.File, opts Options) *Graph {
	opts.fillDefaults()
	g := &Graph{
		Struct:   ag.Struct,
		Pairs:    make(map[[2]int]Edge, len(ag.Weights)),
		Affinity: ag,
	}
	for k, w := range ag.Weights {
		g.Pairs[k] = Edge{F1: k[0], F2: k[1], Gain: opts.K1 * w}
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
					e := g.Pair(a1.Field, a2.Field)
					e.Loss += opts.K2 * cc
					g.Pairs[[2]int{e.F1, e.F2}] = e
				}
			}
		}
	}
}

// Pair returns the canonical pair's entry, zero-weighted when the two
// fields share no edge.
func (g *Graph) Pair(a, b int) Edge {
	k := affinity.PairKey(a, b)
	if e, ok := g.Pairs[k]; ok {
		return e
	}
	return Edge{F1: k[0], F2: k[1]}
}

// Weight returns the net edge weight between two fields.
func (g *Graph) Weight(a, b int) float64 {
	if a == b {
		return 0
	}
	return g.Pairs[affinity.PairKey(a, b)].Weight()
}

// Edges returns every edge sorted by descending net weight (stable
// field-pair tiebreak), so the negative edges form its tail. The first call
// sorts and later calls return the same slice: Pairs must not change after
// the first call, and callers must not modify the slice.
func (g *Graph) Edges() []Edge {
	if g.edges != nil {
		return g.edges
	}
	edges := make([]Edge, 0, len(g.Pairs))
	for _, e := range g.Pairs {
		edges = append(edges, e)
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
	g.edges = edges
	return edges
}

// Important returns the §5.2 subgraph the incremental mode clusters: every
// negative edge plus the topK strongest positive edges (the paper uses 20),
// in the parent's order, so it sorts nothing.
func (g *Graph) Important(topK int) *Graph {
	sg := &Graph{Struct: g.Struct, Pairs: make(map[[2]int]Edge), Affinity: g.Affinity}
	positives := 0
	for _, e := range g.Edges() {
		switch w := e.Weight(); {
		case w < 0:
		case w > 0 && positives < topK:
			positives++
		default:
			continue
		}
		sg.Pairs[[2]int{e.F1, e.F2}] = e
		sg.edges = append(sg.edges, e)
	}
	return sg
}
