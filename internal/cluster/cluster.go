// Package cluster implements the paper's greedy FLG clustering (§4.4,
// Figures 6 and 7): sort nodes by hotness; seed a cluster with the hottest
// unassigned field; repeatedly add the unassigned field with the maximum
// positive total edge weight into the cluster, subject to the cluster
// fitting in one cache line; when no candidate has positive weight or fits,
// start the next cluster from the hottest remaining field.
//
// It also implements the subgraph mode of §5.2 ("best performance"):
// cluster only the nodes that survive the important-edge filter, producing
// grouping/separation constraints for an incremental layout change.
package cluster

import "structlayout/internal/flg"

// Result is a partition of fields into clusters, with quality metrics.
type Result struct {
	// Clusters lists field indices in addition order (seed first). Cluster
	// order follows seed hotness, so hotter clusters come first in a
	// layout.
	Clusters [][]int
	// IntraWeight is the total FLG weight inside clusters (maximized).
	IntraWeight float64
	// InterWeight is the total FLG weight across clusters (minimized).
	InterWeight float64
}

// Greedy clusters every field of the struct (Figure 6). lineSize bounds
// each cluster's packed byte size; a single field larger than a line forms
// its own oversized cluster.
func Greedy(g *flg.Graph, lineSize int) Result {
	return cluster(g, g.Affinity.HottestFirst(), lineSize)
}

// GreedySubgraph clusters only the subgraph's connected nodes (§5.2).
func GreedySubgraph(g *flg.Graph, lineSize int) Result {
	nodes := g.Nodes()
	// Order by hotness descending, field index tiebreak.
	order := append([]int(nil), nodes...)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if g.Hotness[b] > g.Hotness[a] || (g.Hotness[b] == g.Hotness[a] && b < a) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	return cluster(g, order, lineSize)
}

// cluster runs the greedy algorithm over the given node order.
func cluster(g *flg.Graph, order []int, lineSize int) Result {
	var res Result
	unassigned := append([]int(nil), order...)
	remove := func(f int) {
		for i, x := range unassigned {
			if x == f {
				unassigned = append(unassigned[:i], unassigned[i+1:]...)
				return
			}
		}
	}

	for len(unassigned) > 0 {
		seed := unassigned[0]
		remove(seed)
		cur := []int{seed}
		for {
			best, bestW := -1, 0.0
			for _, cand := range unassigned {
				if !fits(g, cur, cand, lineSize) {
					continue
				}
				w := 0.0
				for _, member := range cur {
					w += g.Weight(cand, member)
				}
				// Figure 7: best_weight starts at 0, so only strictly
				// positive totals are ever chosen.
				if w > bestW {
					best, bestW = cand, w
				}
			}
			if best < 0 {
				break
			}
			remove(best)
			cur = append(cur, best)
		}
		res.Clusters = append(res.Clusters, cur)
	}

	res.IntraWeight, res.InterWeight = Weights(g, res.Clusters)
	return res
}

// fits reports whether cluster+cand still packs into one cache line.
// Singletons always fit (an oversized field must live somewhere).
func fits(g *flg.Graph, cur []int, cand int, lineSize int) bool {
	end := 0
	for _, fi := range append(append([]int(nil), cur...), cand) {
		f := g.Struct.Fields[fi]
		end = (end+f.Align-1)/f.Align*f.Align + f.Size
	}
	return end <= lineSize
}

// Weights computes the total intra- and inter-cluster edge weights of a
// partition: the evidence the semi-automatic tool reports alongside the
// layout (§1.1).
func Weights(g *flg.Graph, clusters [][]int) (intra, inter float64) {
	clusterOf := make(map[int]int)
	for ci, c := range clusters {
		for _, f := range c {
			clusterOf[f] = ci
		}
	}
	for _, e := range g.Edges() {
		ci, ok1 := clusterOf[e.F1]
		cj, ok2 := clusterOf[e.F2]
		if !ok1 || !ok2 {
			continue
		}
		if ci == cj {
			intra += e.Weight()
		} else {
			inter += e.Weight()
		}
	}
	return intra, inter
}

// BetweenWeight sums the FLG weight between two clusters.
func BetweenWeight(g *flg.Graph, a, b []int) float64 {
	w := 0.0
	for _, f1 := range a {
		for _, f2 := range b {
			w += g.Weight(f1, f2)
		}
	}
	return w
}

// SeparatePredicate returns the layout-packing separation rule: two
// clusters must not share a cache line when the total FLG weight between
// them is negative (their fields falsely share).
func SeparatePredicate(g *flg.Graph, clusters [][]int) func(ci, cj int) bool {
	return func(ci, cj int) bool {
		if ci == cj || ci < 0 || cj < 0 || ci >= len(clusters) || cj >= len(clusters) {
			return false
		}
		return BetweenWeight(g, clusters[ci], clusters[cj]) < 0
	}
}
