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

import (
	"slices"

	"structlayout/internal/flg"
	"structlayout/internal/ir"
)

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

// GreedySubgraph clusters only the subgraph's connected nodes (§5.2), in
// Greedy's hotness order.
func GreedySubgraph(g *flg.Graph, lineSize int) Result {
	linked := make([]bool, len(g.Struct.Fields))
	for k := range g.Pairs {
		linked[k[0]], linked[k[1]] = true, true
	}
	nodes := slices.DeleteFunc(g.Affinity.HottestFirst(), func(f int) bool { return !linked[f] })
	return cluster(g, nodes, lineSize)
}

// cluster runs the greedy algorithm over the given node order. gain[f] is
// an unassigned field's total weight to the open cluster, added up in
// member order as members are admitted (the same float sum a re-sum of
// the cluster per candidate gives), and end is the open cluster's packed
// size, so each candidate costs one weight lookup per admission.
func cluster(g *flg.Graph, order []int, lineSize int) Result {
	var res Result
	fields := g.Struct.Fields
	assigned := make([]bool, len(fields))
	gain := make([]float64, len(fields))
	for _, seed := range order {
		if assigned[seed] {
			continue
		}
		assigned[seed] = true
		cur := []int{seed}
		end := packedEnd(0, fields[seed])
		for _, f := range order {
			gain[f] = 0
		}
		for added := seed; ; {
			best, bestW := -1, 0.0
			for _, f := range order {
				if assigned[f] {
					continue
				}
				gain[f] += g.Weight(f, added)
				// Figure 7: best_weight starts at 0, so only strictly
				// positive totals are ever chosen. A singleton seed wider
				// than the line admits nothing.
				if gain[f] > bestW && packedEnd(end, fields[f]) <= lineSize {
					best, bestW = f, gain[f]
				}
			}
			if best < 0 {
				break
			}
			assigned[best] = true
			cur = append(cur, best)
			end = packedEnd(end, fields[best])
			added = best
		}
		res.Clusters = append(res.Clusters, cur)
	}

	res.IntraWeight, res.InterWeight = Weights(g, res.Clusters)
	return res
}

// packedEnd returns where f ends when packed, aligned, after end bytes.
func packedEnd(end int, f ir.Field) int {
	return (end+f.Align-1)/f.Align*f.Align + f.Size
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
