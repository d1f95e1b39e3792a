package staticshare

import "structlayout/internal/diag"

// LintFileExact exposes the oracle linter to the external test
// package, which lowers Go packages through gofront (an import the
// internal tests cannot take without a cycle).
var LintFileExact = lintFileExact

// ReportDiag mirrors the findings into a diagnostics log under the
// staticshare source.
func ReportDiag(log *diag.Log, fs []Finding) {
	for _, f := range fs {
		log.Add(f.Severity, "staticshare", f.Code, "%s", f.Message)
	}
}

// HBAcyclic reports whether the happens-before reachability is a strict
// order (no node reaches itself); vacuously true without sync
// statements. The FuzzHB target asserts it.
func (r *Result) HBAcyclic() bool {
	if r.hb == nil {
		return true
	}
	for v := 0; v < r.hb.nodes; v++ {
		if r.hb.reach[v][v] {
			return false
		}
	}
	return true
}

// Pair returns the verdict for a field pair of a struct; absent pairs are
// NeverShared.
func (r *Result) Pair(structName string, f1, f2 int) PairInfo {
	return r.Pairs[structName][pairKey(f1, f2)]
}
