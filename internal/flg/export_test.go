package flg

import (
	"fmt"
	"strings"
)

// Dump renders every edge of the graph with its gain, loss and net weight.
func (g *Graph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "field layout graph for struct %s\n", g.Struct.Name)
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %-20s -- %-20s gain=%.6g loss=%.6g net=%.6g\n",
			g.Struct.Fields[e.F1].Name, g.Struct.Fields[e.F2].Name, e.Gain, e.Loss, e.Weight())
	}
	return sb.String()
}
