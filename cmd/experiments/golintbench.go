// golintbench.go times the Go-package static linter over the committed
// real-world corpus (examples/corpus + examples/gofront) and writes the
// report to -out (BENCH_golint.json when regenerating the baseline). Two
// stages run back to back —
//
//	cold  the production path: pooled importers, parallel, cold cache
//	      (every package misses once)
//	warm  the same run again: every package must replay from the cache
//	      with zero re-analysis
//
// and the bench asserts, unconditionally: the warm findings are
// byte-identical to the cold ones, and the warm pass misses nothing.
// -check adds the usual per-stage gates against the committed baseline:
// wall-clock loosely, memo hits and misses and the package count exactly.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"structlayout/internal/gofront"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/staticshare"
)

// golintPatterns is the committed corpus the bench (and the CI smoke
// job) runs over.
var golintPatterns = []string{"examples/corpus/...", "examples/gofront/..."}

// golintReport is the BENCH_golint.json artifact.
type golintReport struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Jobs       int          `json:"jobs"`
	Packages   int          `json:"packages"`
	Stages     []benchStage `json:"stages"`
	// WarmMisses must be zero: a warm run that re-analyzes anything is an
	// invalidation bug.
	WarmMisses uint64 `json:"warm_misses"`
}

// runGoLintBench times the cold and warm linter passes and writes the
// report to out when it is set. Gates that need no baseline (findings
// parity, zero warm misses) always apply; -check layers the baseline
// gates on top.
func runGoLintBench(out, check string) error {
	jobs := parallel.Limit()
	rep := &golintReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs:       jobs,
	}
	cache := memo.New()

	opts := gofront.Options{Cache: cache}
	stages := []string{"cold", "warm"}
	findingsJSON := make(map[string]string, len(stages))
	for _, name := range stages {
		before := cache.Stats()
		t0 := time.Now()
		reports, err := gofront.Run(golintPatterns, opts)
		secs := time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("golint-bench %s: %w", name, err)
		}
		analyzed := 0
		for _, r := range reports {
			if r.Err != nil {
				return fmt.Errorf("golint-bench %s: %s: %w", name, r.Package, r.Err)
			}
			analyzed++
		}
		raw, err := staticshare.MarshalFindings(gofront.AllFindings(reports))
		if err != nil {
			return err
		}
		findingsJSON[name] = string(raw)
		d := cache.Stats().Sub(before)
		rep.Packages = analyzed
		rep.Stages = append(rep.Stages, benchStage{
			Name: name, Seconds: secs,
			MemoHits: d.Hits(), MemoMisses: d.Misses,
		})
		fmt.Printf("  %-13s %6.2fs  (-j %d, %d package(s), memo %d hit / %d miss)\n",
			name, secs, jobs, analyzed, d.Hits(), d.Misses)
		if name == "warm" {
			rep.WarmMisses = d.Misses
		}
	}

	// The gates that need no baseline.
	var failures []string
	if findingsJSON["cold"] != findingsJSON["warm"] {
		failures = append(failures, "warm replay changed the findings")
	}
	fmt.Printf("warm misses: %d\n", rep.WarmMisses)
	if rep.WarmMisses != 0 {
		failures = append(failures, fmt.Sprintf("warm run re-analyzed %d package(s)", rep.WarmMisses))
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if check != "" {
		if err := checkGoLintRegression(rep, check); err != nil {
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("golint-bench: %s", strings.Join(failures, "; "))
	}
	return nil
}

// checkGoLintRegression gates the stages with the pipeline bench's
// per-stage policy (stageFailures), and the package count exactly.
func checkGoLintRegression(rep *golintReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golint baseline: %w", err)
	}
	var base golintReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("golint baseline %s: %w", path, err)
	}
	failures := stageFailures("stage", rep.Stages, base.Stages, true)
	if rep.Packages != base.Packages {
		failures = append(failures, fmt.Sprintf("packages %d, baseline %d", rep.Packages, base.Packages))
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}
