// Command concmap is the standalone concurrency-map generator — the
// reproduction of the external script in the paper's pipeline (§4.3) that
// processes Caliper's output files into the Concurrency Map.
//
// It reads a sample trace (produced by `layouttool -dump`), buckets the
// samples into fixed time slices, computes CodeConcurrency for every pair
// of source lines, and writes the map as text ("fileA:lineA fileB:lineB
// cc"). With -top it prints only the highest-concurrency pairs, which is
// what a programmer scans for false-sharing suspects.
//
// Malformed traces never crash the tool: structurally broken files are
// rejected with exit status 1, and semantically damaged samples (impossible
// CPU or block ids, absurd timestamps, duplicates) are dropped with a
// data-quality report on stderr before the map is computed.
package main

import (
	"flag"
	"fmt"
	"os"

	"structlayout/internal/concurrency"
	"structlayout/internal/diag"
	"structlayout/internal/sampling"
	"structlayout/internal/workload"
)

func main() {
	var (
		traceIn = flag.String("trace", "", "sample trace JSON (required; see layouttool -dump)")
		slice   = flag.Int64("slice", workload.CollectSliceCycles, "time-slice length in cycles")
		top     = flag.Int("top", 0, "print only the top-N pairs instead of the full map")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if msg := usageError(*traceIn, *slice, *top); msg != "" {
		fmt.Fprintln(os.Stderr, "concmap:", msg)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*traceIn, *slice, *top, *out); err != nil {
		fmt.Fprintln(os.Stderr, "concmap:", err)
		os.Exit(1)
	}
}

// usageError names the first flag whose value run cannot honour: a
// nonpositive -slice would fall back to concurrency's default slice
// length and a negative -top would print the full map, both silently.
func usageError(traceIn string, slice int64, top int) string {
	switch {
	case traceIn == "":
		return "-trace is required"
	case slice <= 0:
		return fmt.Sprintf("-slice %d: want a positive cycle count", slice)
	case top < 0:
		return fmt.Sprintf("-top %d: want 0 (the full map) or a positive count", top)
	}
	return ""
}

func run(traceIn string, slice int64, top int, out string) error {
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		return err
	}
	f, err := os.Open(traceIn)
	if err != nil {
		return err
	}
	trace, err := sampling.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}

	// Drop samples that would poison the map (or panic the line lookup
	// below): CPU/block ids outside the program, absurd timestamps, dups.
	log := diag.NewLog()
	trace = sampling.Sanitize(trace, suite.Prog.NumBlocks(), log)
	if log.Len() > 0 {
		fmt.Fprintf(os.Stderr, "concmap: trace quality:\n%s", log)
	}
	if len(trace.Samples) == 0 {
		return fmt.Errorf("no usable samples remain after sanitization")
	}

	cm, err := concurrency.Compute(trace, concurrency.Options{SliceCycles: slice})
	if err != nil {
		return err
	}

	w := os.Stdout
	if out != "" {
		w, err = os.Create(out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	if top > 0 {
		fmt.Fprintf(w, "# top %d concurrent source-line pairs (of %d)\n", top, len(cm.CC))
		for _, pair := range cm.TopPairs(top) {
			fmt.Fprintf(w, "%s %s %.6g\n",
				suite.Prog.Block(pair.A).Line, suite.Prog.Block(pair.B).Line, cm.CC[pair])
		}
		return nil
	}
	return cm.WriteText(w, suite.Prog)
}
