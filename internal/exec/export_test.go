package exec

// RunReference runs r on the one-op-per-turn reference interpreter (the
// tree walker of reference_test.go: no flat code, no compute merging, no
// read-hit run-ahead) in place of r.Run.
func RunReference(r *Runner) (*Result, error) {
	if err := r.start(); err != nil {
		return nil, err
	}
	ref := &reference{Runner: r, stacks: make([][]frame, len(r.threads))}
	for _, t := range r.threads {
		ref.pushSeq(t, t.entry.Tree)
	}
	if err := ref.run(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// Rounds returns how many scheduler rounds r's Run took.
func Rounds(r *Runner) int64 { return r.rounds }
