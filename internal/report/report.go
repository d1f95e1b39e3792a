// Package report renders the semi-automatic tool's advisory output. The
// paper's tool does not just emit a layout: it "also outputs the factors
// that favored that layout decision" — intra- and inter-cluster edge
// weights and the edges with large positive or negative weight — so that a
// programmer can either adopt the suggested layout or fold the evidence
// into a manual one (§1, §1.1).
package report

import (
	"fmt"
	"strings"

	"structlayout/internal/cluster"
	"structlayout/internal/diag"
	"structlayout/internal/flg"
	"structlayout/internal/layout"
	"structlayout/internal/quality"
	"structlayout/internal/staticshare"
)

// Report bundles a layout suggestion with its supporting evidence.
type Report struct {
	// Graph is the FLG the suggestion derives from.
	Graph *flg.Graph
	// Clustering is the partition chosen.
	Clustering cluster.Result
	// Suggested is the produced layout.
	Suggested *layout.Layout
	// Original is the pre-existing layout, for the side-by-side diff.
	Original *layout.Layout
	// Diagnostics carries the analysis pipeline's data-quality log; when
	// it records a degradation the advisory is visibly flagged, because a
	// layout suggested without (say) concurrency evidence cannot promise
	// the paper's false-sharing guarantees.
	Diagnostics *diag.Log
	// Quality is the composite measurement-quality assessment; when its
	// graded verdict is SUSPECT the advisory is flagged even though no
	// individual check crossed a degradation threshold.
	Quality *quality.Assessment
	// Static, when non-nil, is the static sharing classification digest
	// for this struct (internal/staticshare), including whether its
	// CycleLoss prior was blended into the graph. Nil keeps existing
	// advisories byte-identical.
	Static *staticshare.StructSummary
}

// Degraded reports whether the advisory rests on degraded evidence.
func (r *Report) Degraded() bool { return r.Diagnostics.Degraded() }

// QualityVerdict grades the advisory's evidence: the score-based verdict,
// escalated to Degraded when the diagnostics log recorded a fallback.
func (r *Report) QualityVerdict() quality.Verdict { return Verdict(r.Quality, r.Diagnostics) }

// Verdict grades evidence: q's score-based verdict, escalated to Degraded
// whenever log recorded a defined fallback (a fallback is certain damage;
// the score alone only suspects it).
func Verdict(q *quality.Assessment, log *diag.Log) quality.Verdict {
	v := q.Verdict()
	if log.Degraded() && v < quality.Degraded {
		v = quality.Degraded
	}
	return v
}

// topEdges bounds how many large-weight edges the advisory lists each way.
const topEdges = 10

// String renders the full advisory text.
func (r *Report) String() string {
	var sb strings.Builder
	st := r.Graph.Struct
	fmt.Fprintf(&sb, "==== layout advisory for struct %s ====\n", st.Name)
	if r.Degraded() {
		sb.WriteString("!!!! DEGRADED: built from incomplete measurement data; see diagnostics below !!!!\n")
	} else if r.QualityVerdict() == quality.Suspect {
		sb.WriteString("???? SUSPECT: measurement quality below the calibrated threshold; re-collect before adopting unattended ????\n")
	}
	fmt.Fprintf(&sb, "fields: %d, dense size: %d bytes, line size: %d bytes\n\n",
		len(st.Fields), st.MinBytes(), r.Suggested.LineSize)

	fmt.Fprintf(&sb, "-- clustering: intra-cluster weight %.6g, inter-cluster weight %.6g --\n",
		r.Clustering.IntraWeight, r.Clustering.InterWeight)
	for i, c := range r.Clustering.Clusters {
		fmt.Fprintf(&sb, "cluster %2d (%s):", i, clusterHeat(r.Graph, c))
		for _, f := range c {
			fmt.Fprintf(&sb, " %s", st.Fields[f].Name)
		}
		fmt.Fprintln(&sb)
	}

	fmt.Fprintf(&sb, "\n-- large positive edges (co-locate) --\n")
	edges := r.Graph.Edges()
	pos := 0
	for _, e := range edges {
		if e.Weight() <= 0 || pos >= topEdges {
			break
		}
		pos++
		fmt.Fprintf(&sb, "  %-20s ~ %-20s  +%.6g (gain %.6g, loss %.6g)\n",
			st.Fields[e.F1].Name, st.Fields[e.F2].Name, e.Weight(), e.Gain, e.Loss)
	}
	fmt.Fprintf(&sb, "\n-- large negative edges (separate: potential false sharing) --\n")
	for i := len(edges) - 1; i >= max(0, len(edges)-topEdges) && edges[i].Weight() < 0; i-- {
		e := edges[i] // the negative tail, most negative first
		fmt.Fprintf(&sb, "  %-20s x %-20s  %.6g (gain %.6g, loss %.6g)\n",
			st.Fields[e.F1].Name, st.Fields[e.F2].Name, e.Weight(), e.Gain, e.Loss)
	}

	if r.Static != nil {
		fmt.Fprintf(&sb, "\n-- static sharing --\n%s", r.Static)
	}

	if r.Quality != nil {
		fmt.Fprintf(&sb, "\n-- measurement quality --\n%s\n", r.Quality)
	}
	if r.Diagnostics.Len() > 0 {
		fmt.Fprintf(&sb, "\n-- diagnostics (data quality) --\n%s", r.Diagnostics.String())
	}

	fmt.Fprintf(&sb, "\n-- suggested layout --\n%s", r.Suggested.Dump())
	fmt.Fprintf(&sb, "\n-- C definition --\n%s", r.Suggested.EmitC())
	if r.Original != nil {
		fmt.Fprintf(&sb, "\n-- original layout --\n%s", r.Original.Dump())
		fmt.Fprintf(&sb, "\n-- movement --\n%s", Diff(r.Original, r.Suggested))
	}
	return sb.String()
}

// clusterHeat summarizes a cluster's total hotness.
func clusterHeat(g *flg.Graph, c []int) string {
	h := 0.0
	for _, f := range c {
		h += g.Affinity.Hotness[f]
	}
	return fmt.Sprintf("hot=%.4g", h)
}

// Diff lists fields whose cache line changed between two layouts of the
// same struct.
func Diff(a, b *layout.Layout) string {
	var sb strings.Builder
	moved := 0
	for fi, f := range a.Struct.Fields {
		la, lb := a.LineOf(fi), b.LineOf(fi)
		if la != lb {
			moved++
			fmt.Fprintf(&sb, "  %-24s line %d -> line %d\n", f.Name, la, lb)
		}
	}
	if moved == 0 {
		return "  (no fields changed cache lines)\n"
	}
	return sb.String()
}
