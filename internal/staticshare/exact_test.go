package staticshare

import (
	"sort"

	"structlayout/internal/ir"
	"structlayout/internal/irtext"
)

// analyzeExact is Analyze with the classification replaced by the
// un-memoized walk: every fact before classification (tasks,
// happens-before, reach, frequencies, locks, accesses) is Analyze's own,
// and only Pairs is recomputed.
func analyzeExact(p *ir.Program, cfg Config) (*Result, error) {
	r, err := Analyze(p, cfg)
	if err != nil {
		return nil, err
	}
	r.Pairs = make(map[string]map[[2]int]PairInfo)
	r.classifyExact()
	return r, nil
}

// lintFileExact is LintFile through analyzeExact.
func lintFileExact(f *irtext.File, lineSize int) ([]Finding, *Result, error) {
	res, err := analyzeExact(f.Prog, FileConfig(f))
	if err != nil {
		return nil, nil, err
	}
	return res.Lint(originalLayouts(f, lineSize)), res, nil
}

// classifyExact is the oracle classify is differentially tested against:
// the same per-access-pair walk, serial, with the thread/lock/instance
// verdict re-derived for every pair instead of looked up by conflict
// key. Equal PairInfos from the two check the memo's one assumption:
// that a verdict depends on nothing but the two accesses' keys.
func (r *Result) classifyExact() {
	names := make([]string, 0, len(r.byStruct))
	for name := range r.byStruct {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		idxs := r.byStruct[name]
		aggs := make(map[[2]int]*pairAgg)
		for x := 0; x < len(idxs); x++ {
			a1 := &r.Accesses[idxs[x]]
			for y := x + 1; y < len(idxs); y++ {
				a2 := &r.Accesses[idxs[y]]
				if a1.Field == a2.Field {
					continue // true sharing, not a layout decision
				}
				ov, excluded := r.conflictVerdict(a1, a2)
				if ov == ovNo && !excluded {
					continue
				}
				class, certain := classOf(ov, a1.Write || a2.Write)
				w := a1.Freq
				if a2.Freq < w {
					w = a2.Freq
				}
				key := pairKey(a1.Field, a2.Field)
				agg := aggs[key]
				if agg == nil {
					agg = &pairAgg{}
					aggs[key] = agg
				}
				agg.addPair(class, certain, w, idxs[x], idxs[y])
			}
		}
		if len(aggs) > 0 {
			pairs := make(map[[2]int]PairInfo, len(aggs))
			for k, agg := range aggs {
				pairs[k] = agg.finalize()
			}
			r.Pairs[name] = pairs
		}
	}
}
