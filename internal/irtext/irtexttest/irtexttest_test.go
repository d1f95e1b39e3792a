package irtexttest

import (
	"slices"
	"strings"
	"testing"

	"structlayout/internal/irtext"
)

// TestCommitted: the list reaches every directory that keeps programs.
func TestCommitted(t *testing.T) {
	var paths []string
	for _, slp := range Committed(t) {
		paths = append(paths, slp.Path)
	}
	for _, want := range []string{"examples/dslprogram/webserver.slp", "examples/lint/forkjoin.slp",
		"internal/driver/testdata/memcached.slp", "internal/exec/testdata/runahead/callchain.slp",
		"internal/gofront/testdata/lowered_clean.slp"} {
		if !slices.Contains(paths, want) {
			t.Errorf("%s missing from %v", want, paths)
		}
	}
}

// TestShrink: a failure that needs one statement shrinks to that
// statement on one thread of one iteration.
func TestShrink(t *testing.T) {
	memrand := func(f *irtext.File) bool { return strings.Contains(irtext.Format(f), "memrand") }
	shrunk := 0
	for seed := int64(1); seed <= 20; seed++ {
		g := Engine(seed, 4)
		if f, err := g.File(); err != nil || !memrand(f) {
			continue
		}
		shrunk++
		s := Shrink(g, memrand)
		f, err := s.File()
		stmts := 0
		for _, pr := range s.Procs {
			stmts += len(pr.Body)
		}
		if err != nil || !memrand(f) || stmts != 1 || len(s.Threads) != 1 || s.Threads[0].Iters != 1 {
			t.Errorf("seed %d: not shrunk to one memrand on one thread (%v):\n%+v", seed, err, s)
		}
	}
	if shrunk == 0 {
		t.Fatal("no seed drew a memrand")
	}
}
