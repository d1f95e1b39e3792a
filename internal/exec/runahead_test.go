package exec_test

import (
	"fmt"
	"path"
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/exec"
	"structlayout/internal/irtext"
	"structlayout/internal/irtext/irtexttest"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/sampling"
	"structlayout/internal/workload"
)

// Scheduler rounds of the SDET Superdome128 run under baseline layouts at
// seed 1. The reference interpreter yields before every shared op past its
// turn, as the engine did before read-hit run-ahead; the flat code runs
// commuting read hits ahead. A change to the yield rule moves these counts.
const (
	sdet128SlowRounds = 1_659_586
	sdet128FastRounds = 534_618
)

// sdetRunner assembles a runner for one SDET run the way
// workload.Suite.RunOnce does, so the test can pick the interpreter and
// read the round count.
func sdetRunner(t *testing.T, s *workload.Suite, topo *machine.Topology, ls workload.Layouts, seed int64) *exec.Runner {
	t.Helper()
	r, err := workload.NewRunner(s.File(topo), exec.Config{Topo: topo, Cache: s.Params.Cache, Seed: seed}, s.StructLayouts(ls))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// statsOnHotLine lays struct A out with its eight per-CPU-class
// statistics counters, written by every CPU, on the hot read-mostly line:
// the false-sharing shape of Figure 8's sort-by-hotness layout.
func statsOnHotLine(t *testing.T, ks *workload.KernelStruct, lineSize int) *layout.Layout {
	t.Helper()
	st := ks.Type
	var order []int
	placed := make(map[int]bool)
	put := func(name string) {
		i := st.FieldIndex(name)
		order = append(order, i)
		placed[i] = true
	}
	for _, n := range []string{"pt_state", "pt_flags", "pt_pri", "pt_nice", "pt_addr", "pt_wchan", "pt_pid", "pt_uid"} {
		put(n)
	}
	for i := 0; i < workload.NumStatClasses; i++ {
		put(fmt.Sprintf("pt_stat%d", i))
	}
	for i := range st.Fields {
		if !placed[i] {
			order = append(order, i)
		}
	}
	l, err := layout.FromOrder(st, "stats-on-hot-line", order, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRunAheadSDET: read-hit run-ahead must leave every observable of an
// SDET run — cycles, per-thread finish times, profile, coherence counters,
// per-field statistics — identical to the one-op-per-turn reference, on
// every evaluation machine, under the baseline layouts and under a layout
// that puts written fields on the hot read line.
func TestRunAheadSDET(t *testing.T) {
	s, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lineSize := int(s.Params.Cache.LineSize)
	base := s.BaselineLayouts(lineSize)
	layouts := map[string]workload.Layouts{
		"baseline":          base,
		"stats-on-hot-line": base.WithLayout("A", statsOnHotLine(t, s.Struct("A"), lineSize)),
	}
	for _, topo := range []*machine.Topology{machine.Bus4(), machine.Way16(), machine.Superdome128()} {
		if testing.Short() && topo.NumCPUs() > 16 {
			continue
		}
		for _, name := range []string{"baseline", "stats-on-hot-line"} {
			ls := layouts[name]
			t.Run(topo.Name+"/"+name, func(t *testing.T) {
				const seed = 1
				fast := sdetRunner(t, s, topo, ls, seed)
				slow := sdetRunner(t, s, topo, ls, seed)
				fres, err := fast.Run()
				if err != nil {
					t.Fatal(err)
				}
				sres, err := exec.RunReference(slow)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fres, sres) {
					t.Fatalf("run-ahead diverges from the reference: fast cycles=%d coh=%+v, slow cycles=%d coh=%+v",
						fres.Cycles, fres.Coherence, sres.Cycles, sres.Coherence)
				}
				// The helper must build what the suite runs.
				if want, err := s.RunOnce(topo, ls, seed, nil); err != nil {
					t.Fatal(err)
				} else if !reflect.DeepEqual(fres, want) {
					t.Fatal("sdetRunner result differs from Suite.RunOnce")
				}
				fr, sr := exec.Rounds(fast), exec.Rounds(slow)
				t.Logf("%d accesses, %d rounds with run-ahead, %d without", fres.Coherence.Accesses, fr, sr)
				if fr >= sr {
					t.Errorf("run-ahead saved no rounds: %d vs %d", fr, sr)
				}
				if topo.NumCPUs() == 128 && name == "baseline" && (fr != sdet128FastRounds || sr != sdet128SlowRounds) {
					t.Errorf("rounds = %d fast / %d slow, pinned %d / %d", fr, sr, sdet128FastRounds, sdet128SlowRounds)
				}
			})
		}
	}
}

// runSeed seeds the DSL and generated-program runs.
const runSeed = 5

// engineModes are the two engine configurations the differential tests
// compare the fast path and the reference in: exact, and with a PMU
// collector attached (no compute merging, no run-ahead, a tick at every
// time step).
var engineModes = []struct {
	name     string
	sampling *sampling.Config
}{
	{name: "exact"},
	{name: "collect", sampling: &sampling.Config{IntervalCycles: 200, DriftMaxCycles: 4, LossProb: 0.05, Seed: 11}},
}

// dslRun runs a parsed file the way driver.Run does, on the flat code or
// the one-op-per-turn reference, and returns the scheduler round count
// with the result.
func dslRun(f *irtext.File, cfg exec.Config, slow bool) (*exec.Result, int64, error) {
	r, err := workload.NewRunner(f, cfg, nil)
	if err != nil {
		return nil, 0, err
	}
	run := r.Run
	if slow {
		run = func() (*exec.Result, error) { return exec.RunReference(r) }
	}
	res, err := run()
	return res, exec.Rounds(r), err
}

// TestRunAheadDSL: every committed DSL program (irtexttest.Committed;
// testdata/runahead holds the shrunk counterexamples the generated
// programs found against broken variants of the yield rule) gives the
// same Result on the flat code as on the reference interpreter, on two
// machines, with a cache small enough to evict and with the full-size
// one, in every engine mode.
func TestRunAheadDSL(t *testing.T) {
	for _, slp := range irtexttest.Committed(t) {
		f := slp.File
		for _, c := range []exec.Config{
			{Topo: machine.Bus4(), Cache: coherence.SmallCache()},
			{Topo: machine.Way16(), Cache: coherence.SmallCache()},
			{Topo: machine.Way16(), Cache: coherence.DefaultItanium()},
		} {
			t.Run(fmt.Sprintf("%s/%s/sets%d", path.Base(slp.Path), c.Topo.Name, c.Cache.Sets), func(t *testing.T) {
				for _, mode := range engineModes {
					cfg := c
					cfg.Seed = runSeed
					cfg.Sampling = mode.sampling
					t.Run(mode.name, func(t *testing.T) {
						fast, _, err := dslRun(f, cfg, false)
						if err != nil {
							t.Fatal(err)
						}
						slow, _, err := dslRun(f, cfg, true)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(fast, slow) {
							t.Fatalf("fast path diverges from the reference: fast cycles=%d coh=%+v, slow cycles=%d coh=%+v",
								fast.Cycles, fast.Coherence, slow.Cycles, slow.Coherence)
						}
					})
				}
			})
		}
	}
}
