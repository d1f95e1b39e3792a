package exec

// SetSlowPath switches r to the one-op-per-turn reference interpreter
// (the tree walker: no flat code, no compute merging, no read-hit
// run-ahead). Call it before Run.
func SetSlowPath(r *Runner, slow bool) { r.slowPath = slow }

// Rounds returns how many scheduler rounds r's Run took.
func Rounds(r *Runner) int64 { return r.rounds }
