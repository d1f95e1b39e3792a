package exec_test

import (
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/exec"
	"structlayout/internal/irtext"
	"structlayout/internal/irtext/irtexttest"
	"structlayout/internal/machine"
)

// genSeeds is how many generated programs TestRunAheadGenerated runs on
// each machine.
const genSeeds = 120

// diverges runs f on both interpreter paths in every engine mode and
// reports whether the Results differ in any, with the exact mode's fast
// and slow round counts.
func diverges(f *irtext.File, cfg exec.Config) (bad bool, fastRounds, slowRounds int64, err error) {
	for _, mode := range engineModes {
		cfg.Sampling = mode.sampling
		fast, fr, err := dslRun(f, cfg, false)
		if err != nil {
			return false, 0, 0, err
		}
		slow, sr, err := dslRun(f, cfg, true)
		if err != nil {
			return false, 0, 0, err
		}
		if mode.name == "exact" {
			fastRounds, slowRounds = fr, sr
		}
		bad = bad || !reflect.DeepEqual(fast, slow)
	}
	return bad, fastRounds, slowRounds, nil
}

// TestRunAheadGenerated: generated programs (irtexttest.Engine) give
// identical Results on the flat code, with read-hit run-ahead, and on the
// reference tree walker, in every engine mode. A divergence is shrunk and
// printed as a DSL program, ready to commit under testdata/runahead.
func TestRunAheadGenerated(t *testing.T) {
	for _, topo := range []*machine.Topology{machine.Bus4(), machine.Way16()} {
		cfg := exec.Config{Topo: topo, Cache: coherence.SmallCache(), Seed: runSeed}
		var fastRounds, slowRounds int64
		for seed := int64(1); seed <= genSeeds; seed++ {
			g := irtexttest.Engine(seed, topo.NumCPUs())
			f, err := g.File()
			if err != nil {
				t.Fatalf("%s seed %d: %v", topo.Name, seed, err)
			}
			bad, fr, sr, err := diverges(f, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", topo.Name, seed, err)
			}
			fastRounds += fr
			slowRounds += sr
			if bad {
				shrunk, err := irtexttest.Shrink(g, func(f *irtext.File) bool {
					bad, _, _, err := diverges(f, cfg)
					return err == nil && bad
				}).File()
				if err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s seed %d: the fast path diverges from the reference; shrunk program:\n%s", topo.Name, seed, irtext.Format(shrunk))
			}
		}
		t.Logf("%s: %d programs, %d rounds with run-ahead, %d without", topo.Name, genSeeds, fastRounds, slowRounds)
		if fastRounds >= slowRounds {
			t.Errorf("%s: run-ahead never fired on the generated programs", topo.Name)
		}
	}
}
