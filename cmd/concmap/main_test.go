package main

import (
	"os"
	"path/filepath"
	"testing"

	"structlayout/internal/machine"
	"structlayout/internal/workload"
)

func TestConcmapRoundTrip(t *testing.T) {
	// Produce a trace via a short collection, then process it.
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := suite.Collect(machine.Bus4(), suite.BaselineLayouts(128), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(dir, "cm.txt")
	if err := run(tracePath, workload.CollectSliceCycles, 0, out); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("empty concurrency map")
	}
	topOut := filepath.Join(dir, "top.txt")
	if err := run(tracePath, workload.CollectSliceCycles, 5, topOut); err != nil {
		t.Fatal(err)
	}
	top, _ := os.ReadFile(topOut)
	if len(top) == 0 || len(top) >= len(full) {
		t.Fatalf("top output wrong: %d vs %d bytes", len(top), len(full))
	}
}

func TestConcmapMissingTrace(t *testing.T) {
	if err := run("/nonexistent/trace.json", 1000, 0, ""); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestConcmapUsageErrors: a missing -trace, a nonpositive -slice and a
// negative -top are usage errors naming the flag (the CLI exits 2), not
// silent fallbacks to the default slice or the full map.
func TestConcmapUsageErrors(t *testing.T) {
	cases := []struct {
		trace string
		slice int64
		top   int
		want  string
	}{
		{"", workload.CollectSliceCycles, 0, "-trace is required"},
		{"t.json", 0, 0, "-slice 0: want a positive cycle count"},
		{"t.json", -5, 5, "-slice -5: want a positive cycle count"},
		{"t.json", workload.CollectSliceCycles, -3, "-top -3: want 0 (the full map) or a positive count"},
		{"t.json", workload.CollectSliceCycles, 0, ""},
		{"t.json", 1, 5, ""},
	}
	for _, c := range cases {
		if got := usageError(c.trace, c.slice, c.top); got != c.want {
			t.Errorf("usageError(%q, %d, %d) = %q, want %q", c.trace, c.slice, c.top, got, c.want)
		}
	}
}

// TestConcmapSurvivesMalformedTraces: every malformed input must come back
// as an error (the CLI exits 1), never a panic — including semantically
// hostile samples that pass the structural decoder, like block ids far
// beyond the program (which would index out of range in the -top printer).
func TestConcmapSurvivesMalformedTraces(t *testing.T) {
	cases := map[string]string{
		"not-json":     `]]]`,
		"neg-interval": `{"interval_cycles":-5,"num_cpus":2,"cpu":[0],"block":[0],"itc":[100]}`,
		"len-mismatch": `{"interval_cycles":100,"num_cpus":2,"cpu":[0,1],"block":[0],"itc":[100]}`,
		"all-junk-samples": `{"interval_cycles":100,"num_cpus":2,` +
			`"cpu":[0,1],"block":[1000000,2000000],"itc":[100,200]}`,
	}
	dir := t.TempDir()
	for name, body := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(path, 1000, 5, filepath.Join(dir, name+".out")); err == nil {
			t.Errorf("%s: malformed trace accepted", name)
		}
	}
}
