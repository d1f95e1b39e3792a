package driver

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"structlayout/internal/exec"
	"structlayout/internal/irtext"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/workload"
)

// The per-thread-instance stress test, companion to
// TestConcurrentCallersMatchSerial: many goroutines drive unmemoized
// driver.Run (so every call re-executes the simulator), sampled
// measurement, collection and the workload suite's sampled path over a
// program whose threads touch footprint-disjoint arena instances, racing
// cold and warm cache states — and every result must be byte-identical to
// a serial pass. The name dates from when this footprint-disjoint shape
// ran on a sharded coherence directory; run under -race it is now the
// single-directory simulator's data-race test for that shape.

// shardProgram gives each thread its own arena instance through its
// parameter, so its lock and field traffic resolves per thread.
const shardProgram = `
program shardstress

struct rec {
    r_lock i64
    r_hot  i64
    r_cnt  i64
    r_pad  arr 5 8 align 8
}

proc touch {
    lock rec.r_lock param 0
    write rec.r_hot param 0
    read rec.r_cnt param 0
    write rec.r_cnt param 0
    unlock rec.r_lock param 0
    compute 15
}

proc worker {
    loop 12 {
        call touch
    }
}

arena rec 4
thread 0 worker params 0 iters 2
thread 1 worker params 1 iters 2
thread 2 worker params 2 iters 2
thread 3 worker params 3 iters 2
`

// encodeResult canonically dumps everything a run observably produces.
func encodeResult(res *exec.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d completed=%d threads=%v\n", res.Cycles, res.Completed, res.ThreadCycles)
	fmt.Fprintf(&b, "coherence=%+v\n", res.Coherence)
	refs := make([]exec.FieldRef, 0, len(res.Fields))
	for ref := range res.Fields {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Struct != refs[j].Struct {
			return refs[i].Struct < refs[j].Struct
		}
		return refs[i].Field < refs[j].Field
	})
	for _, ref := range refs {
		fmt.Fprintf(&b, "%s.%d=%+v\n", ref.Struct, ref.Field, *res.Fields[ref])
	}
	if res.Sampled != nil {
		fmt.Fprintf(&b, "sampled=%+v\n", *res.Sampled)
	}
	return b.String()
}

func shardStressCases(t *testing.T) []stressCase {
	t.Helper()
	topo, err := machine.ByName("way16")
	if err != nil {
		t.Fatal(err)
	}
	file, err := irtext.Parse(shardProgram)
	if err != nil {
		t.Fatal(err)
	}
	var cases []stressCase

	// Unmemoized runs, exact and sampled: every replay re-executes the
	// simulator, so the concurrent rounds race it, not just the cache.
	sampled := exec.SimConfig{Mode: exec.SimSampled, WindowOps: 1 << 6, Period: 3}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"run/exact", Config{Topo: topo, Seed: 3}},
		{"run/sampled", Config{Topo: topo, Seed: 3, Sim: sampled}},
	} {
		cfg := tc.cfg
		cases = append(cases, stressCase{name: tc.name, run: func() (string, error) {
			res, err := Run(file, cfg, nil)
			if err != nil {
				return "", err
			}
			return encodeResult(res), nil
		}})
	}

	// Memoized sampled measurement: replays race the single-flight cold
	// path and then the warm memory tier.
	mcfg := Config{Topo: topo, Seed: 7, Sim: sampled}
	cases = append(cases, jsonCase("measure/sampled", func() (any, error) {
		return MeasureCtx(context.Background(), file, mcfg, nil, 3)
	}))

	cases = append(cases, collectCase("collect", file, Config{Topo: topo, Seed: 5}))

	// The built-in workload with sampling on.
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	suite.Sim = sampled
	ls := suite.BaselineLayouts(128)
	cases = append(cases, jsonCase("workload/sampled", func() (any, error) {
		return suite.Measure(topo, ls, 2, 42)
	}))
	return cases
}

func TestShardedConcurrentCallersMatchSerial(t *testing.T) {
	// The container may be single-CPU; a Measure call's runs only overlap
	// when the worker limit allows it.
	old := parallel.Limit()
	parallel.SetLimit(4)
	defer parallel.SetLimit(old)

	replayMatchesSerial(t, shardStressCases(t))
}
