package flg

import (
	"fmt"
	"io"
	"sort"
)

// WriteDOT renders the graph in Graphviz DOT syntax, the visual companion
// to the tool's textual advisory: solid green edges want co-location
// (CycleGain dominates), dashed red edges demand separation (CycleLoss
// dominates), and node size follows hotness. Edge width scales with |net
// weight| relative to the graph's largest edge. Fields without any edge are
// omitted unless withIsolated is set.
func (g *Graph) WriteDOT(w io.Writer, withIsolated bool) error {
	edges := g.Edges()
	var maxAbs float64
	for _, e := range edges {
		if a := abs(e.Weight()); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	var maxHot float64
	for _, h := range g.Affinity.Hotness {
		if h > maxHot {
			maxHot = h
		}
	}
	if maxHot == 0 {
		maxHot = 1
	}

	if _, err := fmt.Fprintf(w, "graph %q {\n  layout=neato;\n  overlap=false;\n  node [shape=box, style=filled, fillcolor=\"#f5f1e8\"];\n", g.Struct.Name); err != nil {
		return err
	}
	nodes := map[int]bool{}
	for _, e := range edges {
		nodes[e.F1] = true
		nodes[e.F2] = true
	}
	if withIsolated {
		for fi := range g.Struct.Fields {
			nodes[fi] = true
		}
	}
	ordered := make([]int, 0, len(nodes))
	for fi := range nodes {
		ordered = append(ordered, fi)
	}
	sort.Ints(ordered)
	for _, fi := range ordered {
		hot := g.Affinity.Hotness[fi] / maxHot
		fmt.Fprintf(w, "  f%d [label=%q, fontsize=%.0f];\n",
			fi, g.Struct.Fields[fi].Name, 10+hot*14)
	}
	for _, e := range edges {
		width := 0.5 + 4*abs(e.Weight())/maxAbs
		if e.Weight() >= 0 {
			fmt.Fprintf(w, "  f%d -- f%d [color=\"#2a7d4f\", penwidth=%.2f, label=\"+%.3g\"];\n",
				e.F1, e.F2, width, e.Weight())
		} else {
			fmt.Fprintf(w, "  f%d -- f%d [color=\"#b3362a\", style=dashed, penwidth=%.2f, label=\"%.3g\"];\n",
				e.F1, e.F2, width, e.Weight())
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
