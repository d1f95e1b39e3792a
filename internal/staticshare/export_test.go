package staticshare

import (
	"structlayout/internal/diag"
	"structlayout/internal/ir"
)

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

// The MHP soundness harness (mhpcheck_harness_test.go) drives the
// analysis through the four methods below: it models lock instances,
// spawned tasks and the claims it refutes exactly as the analysis sees
// them.

// ResolveInst resolves an instance expression for task ti the way the
// static exclusion proofs do.
func (r *Result) ResolveInst(ti int, structName string, e ir.InstExpr) (idx int, known, sweep bool) {
	return r.resolveInst(ti, structName, e)
}

// HBOrdered reports whether the happens-before graph orders every segment
// combination blocks b1 (on task t1) and b2 (on task t2) can execute in.
func (r *Result) HBOrdered(t1 int, b1 ir.BlockID, t2 int, b2 ir.BlockID) bool {
	return r.hbExcluded(t1, b1, t2, b2)
}

// MayHappenInParallel reports whether two blocks can execute concurrently
// on distinct threads: the complement of Exclusive.
func (r *Result) MayHappenInParallel(b1, b2 ir.BlockID) bool { return !r.Exclusive(b1, b2) }

// SpawnedTask returns the task index created by parent's spawn of the
// given handle.
func (r *Result) SpawnedTask(parent int, handle string) (int, bool) {
	if r.hb == nil {
		return 0, false
	}
	for ti, t := range r.hb.tasks {
		if t.parent == parent && t.handle == handle {
			return ti, true
		}
	}
	return 0, false
}
