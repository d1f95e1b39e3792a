package staticshare

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/concurrency"
	"structlayout/internal/diag"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/locks"
)

// Lint finding codes, stable for machine matching and golden tests.
const (
	// CodeFalseSharing: a statically-certain write-shared field pair that
	// the layout keeps on one cache line.
	CodeFalseSharing = "static-false-sharing"
	// CodeLockImbalance: a procedure acquires and releases asymmetrically
	// on some path.
	CodeLockImbalance = "lock-imbalance"
	// CodePerThreadLock: shared-instance data written under locks the
	// threads acquire on distinct instances — the locks serialize
	// nothing.
	CodePerThreadLock = "perthread-lock-shared-data"
	// CodeLockAnalysisFailed: the lock analysis degraded; exclusion facts
	// are conservatively absent.
	CodeLockAnalysisFailed = "lock-analysis-failed"
	// CodeExclusiveCC: sampled CC mass on block pairs the MHP relation
	// proves exclusive — a measurement-quality contradiction.
	CodeExclusiveCC = "mhp-exclusive-cc"
	// CodeLintSkipped: an input (a *.slp file in a -lint-dir tree, a Go
	// package in a -go-lint run) could not be read, parsed or analyzed;
	// it was skipped and the rest of the run still linted.
	CodeLintSkipped = "lint-skipped"
)

// Finding is one ranked linter diagnostic.
type Finding struct {
	Severity diag.Severity `json:"severity"`
	Code     string        `json:"code"`
	Struct   string        `json:"struct,omitempty"`
	Fields   []string      `json:"fields,omitempty"`
	// Weight ranks findings of equal severity (static co-execution
	// frequency, CC mass, ...).
	Weight  float64 `json:"weight"`
	Message string  `json:"message"`
}

// Lint runs every static check against the given layouts (keyed by struct
// name; structs without an entry are checked against their declaration
// order at the analysis line size — pass nil to skip co-location checks
// entirely). Findings come back ranked: severity first, then weight.
func (r *Result) Lint(layouts map[string]*layout.Layout) []Finding {
	var out []Finding
	out = append(out, r.lintFalseSharing(layouts)...)
	out = append(out, r.lintLockImbalance()...)
	out = append(out, r.lintPerThreadLocks()...)
	rankFindings(out)
	return out
}

// lintFalseSharing flags statically-certain write-shared pairs the layout
// co-locates.
func (r *Result) lintFalseSharing(layouts map[string]*layout.Layout) []Finding {
	var out []Finding
	names := make([]string, 0, len(r.Pairs))
	for name := range r.Pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lay := layouts[name]
		if lay == nil {
			continue
		}
		st := r.Prog.Struct(name)
		if st == nil {
			continue
		}
		pairs := r.Pairs[name]
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
			if info.Class != WriteShared || !info.Certain {
				continue
			}
			if k[0] >= len(st.Fields) || k[1] >= len(st.Fields) || k[0] >= len(lay.Offsets) || k[1] >= len(lay.Offsets) {
				continue
			}
			if !lay.SameLine(k[0], k[1]) {
				continue
			}
			f1, f2 := st.Fields[k[0]].Name, st.Fields[k[1]].Name
			out = append(out, Finding{
				Severity: diag.Warning,
				Code:     CodeFalseSharing,
				Struct:   name,
				Fields:   []string{f1, f2},
				Weight:   info.Weight,
				Message: fmt.Sprintf("struct %s: fields %s and %s are write-shared across threads (statically certain) but layout %q co-locates them on cache line %d",
					name, f1, f2, lay.Name, lay.LineOf(k[0])),
			})
		}
	}
	return out
}

// lintLockImbalance flags procedures whose lock discipline is unbalanced
// on some path, plus a degraded finding when the lock analysis failed
// outright.
func (r *Result) lintLockImbalance() []Finding {
	var out []Finding
	if r.LocksErr != nil {
		out = append(out, Finding{
			Severity: diag.Degraded,
			Code:     CodeLockAnalysisFailed,
			Message:  fmt.Sprintf("lock analysis degraded, exclusion facts unavailable: %v", r.LocksErr),
		})
		return out
	}
	if r.Locks == nil {
		return out
	}
	for _, pr := range r.Prog.Procs {
		if r.Locks.Balanced(pr.Name) {
			continue
		}
		out = append(out, Finding{
			Severity: diag.Warning,
			Code:     CodeLockImbalance,
			Weight:   r.procFreq[pr.Name],
			Message:  fmt.Sprintf("procedure %s acquires and releases locks asymmetrically on some path; held sets were conservatively dropped", pr.Name),
		})
	}
	return out
}

// lintPerThreadLocks flags fields written to a provably shared instance
// while every "protecting" lock resolves to distinct instances across the
// conflicting threads: the classic bug of guarding shared data with a
// per-thread (or per-object) lock. The lockedButShared verdict depends
// only on the two accesses' conflict keys, so it is derived once per
// same-field key pair instead of once per access pair; the weight
// accumulation then replays per access in the original order, keeping
// output identical to the O(accesses²) walk.
func (r *Result) lintPerThreadLocks() []Finding {
	type key struct {
		structName string
		field      int
		lock       string
	}
	agg := make(map[key]float64)
	names := make([]string, 0, len(r.byStruct))
	for name := range r.byStruct {
		names = append(names, name)
	}
	sort.Strings(names)
	var keys []key
	for _, name := range names {
		idxs := r.byStruct[name]
		// Group the struct's accesses by (field, conflict key).
		gid := make(map[[2]int]int)
		gidOf := make([]int, len(idxs))
		var reps []*Access
		for x, ai := range idxs {
			a := &r.Accesses[ai]
			k := [2]int{a.Field, a.key}
			id, ok := gid[k]
			if !ok {
				id = len(reps)
				gid[k] = id
				reps = append(reps, a)
			}
			gidOf[x] = id
		}
		// One verdict per same-field group pair (self-pairs included:
		// two threads can race through the same instruction).
		verdicts := make(map[[2]int]bool)
		matched := make([]bool, len(reps))
		for i := range reps {
			for j := range reps {
				if reps[i].Field != reps[j].Field || matched[i] {
					continue
				}
				mk := keyPair(reps[i], reps[j])
				v, ok := verdicts[mk]
				if !ok {
					v = r.lockedButShared(reps[i], reps[j])
					verdicts[mk] = v
				}
				if v {
					matched[i] = true
				}
			}
		}
		for x, ai := range idxs {
			a1 := &r.Accesses[ai]
			if !a1.Write || a1.IsLock || len(a1.Held) == 0 || !matched[gidOf[x]] {
				continue
			}
			lockName := heldName(r.Prog, a1.Held)
			k := key{name, a1.Field, lockName}
			if _, dup := agg[k]; !dup {
				keys = append(keys, k)
			}
			agg[k] += a1.Freq
		}
	}
	var out []Finding
	for _, k := range keys {
		st := r.Prog.Struct(k.structName)
		if st == nil || k.field >= len(st.Fields) {
			continue
		}
		fname := st.Fields[k.field].Name
		out = append(out, Finding{
			Severity: diag.Warning,
			Code:     CodePerThreadLock,
			Struct:   k.structName,
			Fields:   []string{fname},
			Weight:   agg[k],
			Message: fmt.Sprintf("struct %s: field %s is written to a shared instance under lock %s, but threads acquire that lock on distinct instances — it serializes nothing",
				k.structName, fname, k.lock),
		})
	}
	return out
}

// lockedButShared reports whether a1 and a2 (same struct+field, a1 a
// locked write) can touch the same instance from distinct threads with no
// common concrete lock. Thread pairs the happens-before graph proves
// ordered cannot race at all, whatever their locks resolve to.
func (r *Result) lockedButShared(a1, a2 *Access) bool {
	for _, t1 := range a1.Threads {
		for _, t2 := range a2.Threads {
			if t1 == t2 {
				continue
			}
			if r.overlap(t1, a1, t2, a2) != ovMust {
				continue
			}
			if r.hbExcluded(t1, a1.Block, t2, a2.Block) {
				continue
			}
			if !r.heldPairExcludes(t1, a1.Held, t2, a2.Held) {
				return true
			}
		}
	}
	return false
}

// heldName renders the held set's lock field names for messages,
// deterministically (sorted, deduplicated).
func heldName(p *ir.Program, held []locks.Key) string {
	names := make([]string, 0, len(held))
	seen := make(map[string]bool)
	for _, k := range held {
		name := fmt.Sprintf("%s.#%d", k.Struct, k.Field)
		if st := p.Struct(k.Struct); st != nil && k.Field >= 0 && k.Field < len(st.Fields) {
			name = k.Struct + "." + st.Fields[k.Field].Name
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// LintCC converts the CC-versus-MHP cross-check into a finding, empty
// when the sampled map carries no contradicted mass.
func (r *Result) LintCC(cm *concurrency.Map) []Finding {
	chk := r.CheckCC(cm)
	if chk.ContradictedMass <= 0 {
		return nil
	}
	return []Finding{{
		Severity: diag.Warning,
		Code:     CodeExclusiveCC,
		Weight:   chk.ContradictedMass,
		Message: fmt.Sprintf("%d sampled block pair(s) carry %.4g CC mass but provably never run in parallel (agreement %.3f) — the trace misattributes concurrency",
			chk.ContradictedPairs, chk.ContradictedMass, chk.Agreement),
	}}
}

// Skipped is the lint-skipped finding for an input that could not be
// read, parsed or analyzed: a .slp file of a tree, or a Go package. The
// message names the input once, also when err starts with its name.
func Skipped(input string, err error) Finding {
	return Finding{
		Severity: diag.Degraded,
		Code:     CodeLintSkipped,
		Message:  fmt.Sprintf("%s: skipped: %s", input, strings.TrimPrefix(err.Error(), input+": ")),
	}
}

// Rank orders findings by severity (desc), weight (desc), then code,
// struct and message for a total deterministic order.
func Rank(fs []Finding) { rankFindings(fs) }

// rankFindings orders by severity (desc), weight (desc), then code,
// struct and message for a total deterministic order.
func rankFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Weight != fs[j].Weight {
			return fs[i].Weight > fs[j].Weight
		}
		if fs[i].Code != fs[j].Code {
			return fs[i].Code < fs[j].Code
		}
		if fs[i].Struct != fs[j].Struct {
			return fs[i].Struct < fs[j].Struct
		}
		return fs[i].Message < fs[j].Message
	})
}

// MaxSeverity returns the highest severity among the findings, or Info
// when there are none.
func MaxSeverity(fs []Finding) diag.Severity {
	max := diag.Info
	for _, f := range fs {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// MarshalFindings renders findings as machine-readable JSON (a stable
// array, ranked like Lint's output).
func MarshalFindings(fs []Finding) ([]byte, error) {
	if fs == nil {
		fs = []Finding{}
	}
	return json.MarshalIndent(fs, "", "  ")
}

// LintFile is the one-call linter for a parsed DSL file: analyze under
// the file's declared threads and arenas, then lint against
// declaration-order layouts at the given coherence-line size.
func LintFile(f *irtext.File, lineSize int) ([]Finding, *Result, error) {
	if f == nil || f.Prog == nil {
		return nil, nil, fmt.Errorf("staticshare: nil file")
	}
	res, err := Analyze(f.Prog, FileConfig(f))
	if err != nil {
		return nil, nil, err
	}
	return res.Lint(originalLayouts(f, lineSize)), res, nil
}

// originalLayouts lays out every struct of the file in declaration order;
// structs that cannot be laid out are left out, skipping their
// co-location checks.
func originalLayouts(f *irtext.File, lineSize int) map[string]*layout.Layout {
	layouts := make(map[string]*layout.Layout)
	for _, st := range f.Prog.Structs {
		lay, lerr := layout.Original(st, lineSize)
		if lerr != nil {
			continue // un-layoutable struct: co-location checks skipped
		}
		layouts[st.Name] = lay
	}
	return layouts
}
