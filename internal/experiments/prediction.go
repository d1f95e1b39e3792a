package experiments

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/machine"
	"structlayout/internal/stats"
	"structlayout/internal/workload"
)

// PredictionRow correlates, for one struct, the tool's *predicted*
// false-sharing hazard per field (the FLG's CycleLoss mass, computed from
// sampled CodeConcurrency on the 16-way collection machine) against the
// *measured* false-sharing events per field (the coherence simulator's
// ground truth under the baseline layout on the 128-way machine).
//
// This evaluates the paper's central bet: that a lightweight, sampling-based
// estimate — collected on a different, smaller machine — ranks the hazards
// the same way the real machine experiences them. The paper could not
// measure this directly ("there is no easy way to measure how many cycles
// are lost due to false sharing on a native execution", §3); the simulator
// can.
type PredictionRow struct {
	Label string
	// Rank is the Spearman correlation between predicted per-field loss
	// mass and measured per-field false-sharing events.
	Rank float64
	// TopHit reports whether the field with the largest predicted hazard
	// is among the top-3 measured offenders.
	TopHit bool
	// Fields is the number of fields with either signal.
	Fields int
}

// PredictionAccuracy runs the study for every struct. Ground truth comes
// from a run under the sort-by-hotness layouts: CycleLoss predicts the
// penalty of *co-locating* a pair, so the measuring layout must actually
// co-locate the hot fields — exactly what the naive heuristic does (under
// the hand-tuned baseline or the declaration order, the known hazards are
// already padded apart and express nothing).
func (p *Pipeline) PredictionAccuracy() ([]PredictionRow, error) {
	dense := p.Baselines
	for _, label := range workload.Labels() {
		dense = dense.WithLayout(label, p.Hotness[label])
	}
	res, err := p.Suite.RunOnce(machine.Superdome128(), dense, p.Cfg.BaseSeed+41, nil)
	if err != nil {
		return nil, err
	}
	var rows []PredictionRow
	for _, label := range workload.Labels() {
		st := p.Suite.Struct(label).Type
		g, err := p.Analysis.BuildFLG(st.Name)
		if err != nil {
			return nil, err
		}
		// A pair's predicted loss can only materialize when the measuring
		// layout actually co-locates the pair; restrict the per-field mass
		// accordingly (apples to apples with the measured counters).
		lay := p.Hotness[label]
		predicted := make(map[int]float64)
		for _, e := range g.Edges() {
			if e.Loss == 0 || !lay.SameLine(e.F1, e.F2) {
				continue
			}
			predicted[e.F1] += e.Loss
			predicted[e.F2] += e.Loss
		}
		// Measured hazard = victim events + caused events, so writers like
		// a hot lock or counter get credited for the misses they inflict.
		measured := make(map[int]float64)
		for ref, fs := range res.Fields {
			if ref.Struct == st.Name {
				measured[ref.Field] = float64(fs.FalseSharing + fs.CausedFalseSharing)
			}
		}
		// Correlate over the union of fields with any signal.
		union := make(map[int]bool)
		for fi := range predicted {
			union[fi] = true
		}
		for fi, v := range measured {
			if v > 0 {
				union[fi] = true
			}
		}
		if len(union) < 3 {
			rows = append(rows, PredictionRow{Label: label, Fields: len(union)})
			continue
		}
		var xs, ys []float64
		fields := make([]int, 0, len(union))
		for fi := range union {
			fields = append(fields, fi)
		}
		sort.Ints(fields)
		for _, fi := range fields {
			xs = append(xs, predicted[fi])
			ys = append(ys, measured[fi])
		}
		row := PredictionRow{Label: label, Fields: len(union)}
		if r, err := stats.SpearmanRank(xs, ys); err == nil {
			row.Rank = r
		}
		row.TopHit = topPredictedIsTopMeasured(predicted, measured)
		rows = append(rows, row)
	}
	return rows, nil
}

// topPredictedIsTopMeasured checks the headline use: does the field the
// tool would separate first actually belong to the worst measured
// offenders?
func topPredictedIsTopMeasured(predicted, measured map[int]float64) bool {
	bestP, bestPV := -1, 0.0
	for fi, v := range predicted {
		if v > bestPV {
			bestP, bestPV = fi, v
		}
	}
	if bestP < 0 {
		return false
	}
	type kv struct {
		fi int
		v  float64
	}
	var ms []kv
	for fi, v := range measured {
		ms = append(ms, kv{fi, v})
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].v != ms[j].v {
			return ms[i].v > ms[j].v
		}
		return ms[i].fi < ms[j].fi
	})
	for i := 0; i < len(ms) && i < 3; i++ {
		if ms[i].fi == bestP && ms[i].v > 0 {
			return true
		}
	}
	return false
}

// PredictionReport renders the study.
func PredictionReport(rows []PredictionRow) string {
	var sb strings.Builder
	sb.WriteString("CycleLoss prediction accuracy (sampled 16-way prediction vs measured 128-way ground truth)\n")
	fmt.Fprintf(&sb, "%-8s %12s %10s %8s\n", "struct", "rank-corr", "top-hit", "fields")
	for _, r := range rows {
		hit := "no"
		if r.TopHit {
			hit = "yes"
		}
		fmt.Fprintf(&sb, "%-8s %12.2f %10s %8d\n", r.Label, r.Rank, hit, r.Fields)
	}
	return sb.String()
}
