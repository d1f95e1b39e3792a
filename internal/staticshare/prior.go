package staticshare

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/flg"
)

// How the static classification blends into an FLG as a CycleLoss prior.
const (
	// priorMarginFrac sizes the safety margin forced onto
	// statically-certain write-shared pairs, as a fraction of the graph's
	// largest absolute gain: their net weight is driven at least that far
	// negative, so the clusterer (which only merges strictly positive
	// weights) never co-locates them and the packer keeps their clusters
	// on separate lines.
	priorMarginFrac = 0.01
	// priorDiscount scales the loss charged to possible-but-uncertain
	// write-shared pairs (unknown parameter bindings): loss grows by
	// priorDiscount × gain, shrinking the attraction without forbidding
	// co-location.
	priorDiscount = 0.5
)

// PriorResult summarizes one ApplyPrior call.
type PriorResult struct {
	// Certain counts write-shared pairs whose net weight was forced
	// negative; Possible counts uncertain pairs whose gain was
	// discounted.
	Certain  int
	Possible int
}

// ApplyPrior blends the static sharing classification into the FLG: the
// zero-profile CycleLoss stand-in for runs whose sampled trace is missing
// or degraded. Statically-certain write-shared pairs get their loss
// floored above their gain (they must never share a cache line — exactly
// what a perfect trace would have charged them); possible write conflicts
// get a discounted gain. Read-shared, lock-serialized and never-shared
// pairs are left untouched: the paper's machinery already handles them.
func (r *Result) ApplyPrior(g *flg.Graph) PriorResult {
	var out PriorResult
	if g == nil || g.Struct == nil {
		return out
	}
	pairs := r.Pairs[g.Struct.Name]
	if len(pairs) == 0 {
		return out
	}
	maxGain := 0.0
	for _, e := range g.Pairs {
		if v := e.Gain; v > maxGain {
			maxGain = v
		} else if -v > maxGain {
			maxGain = -v
		}
	}
	margin := 1e-6 + priorMarginFrac*maxGain
	keys := make([][2]int, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	nf := g.Struct.NumFields()
	for _, k := range keys {
		info := pairs[k]
		if info.Class != WriteShared || k[0] >= nf || k[1] >= nf {
			continue
		}
		e := g.Pair(k[0], k[1])
		if info.Certain {
			if floor := e.Gain + margin; e.Loss < floor {
				e.Loss = floor
				g.Pairs[[2]int{e.F1, e.F2}] = e
			}
			out.Certain++
		} else if e.Gain > 0 {
			e.Loss += priorDiscount * e.Gain
			g.Pairs[[2]int{e.F1, e.F2}] = e
			out.Possible++
		}
	}
	return out
}

// StructSummary is the per-struct digest the report renders.
type StructSummary struct {
	Struct string
	// Counts indexes pair tallies by PairClass.
	Counts [4]int
	// CertainPairs lists statically-certain write-shared field-name
	// pairs, sorted.
	CertainPairs [][2]string
	// Prior, when non-nil, records that the static prior was blended
	// into this struct's FLG.
	Prior *PriorResult
}

// Summary digests the classification for one struct, nil when the struct
// has no classified pairs.
func (r *Result) Summary(structName string) *StructSummary {
	pairs := r.Pairs[structName]
	if len(pairs) == 0 {
		return nil
	}
	st := r.Prog.Struct(structName)
	s := &StructSummary{Struct: structName}
	keys := make([][2]int, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		info := pairs[k]
		s.Counts[info.Class]++
		if info.Class == WriteShared && info.Certain && st != nil &&
			k[0] < len(st.Fields) && k[1] < len(st.Fields) {
			s.CertainPairs = append(s.CertainPairs, [2]string{st.Fields[k[0]].Name, st.Fields[k[1]].Name})
		}
	}
	return s
}

// String renders the summary for the report.
func (s *StructSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s: %d write-shared (%d certain), %d lock-serialized, %d read-shared pairs\n",
		s.Struct, s.Counts[WriteShared], len(s.CertainPairs), s.Counts[LockSerialized], s.Counts[ReadShared])
	for _, p := range s.CertainPairs {
		fmt.Fprintf(&b, "  certain write-shared: %s / %s\n", p[0], p[1])
	}
	if s.Prior != nil {
		fmt.Fprintf(&b, "  static prior applied: %d pairs forced apart, %d discounted\n", s.Prior.Certain, s.Prior.Possible)
	}
	return b.String()
}
