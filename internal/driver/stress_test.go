package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"structlayout/internal/faults"
	"structlayout/internal/irtext"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/workload"
)

// The concurrent-callers stress test: many goroutines drive driver.MeasureCtx,
// driver.CollectCached, and workload.Measure over a mixed set of
// configurations — some fault-injected, some clean, racing cold (single
// flight coalescing) and warm (memory-tier hits) cache states — and every
// result must be byte-identical to the one a serial pass computed. Run
// under -race this is also the memoization layer's data-race test.

const stressProgram = `
program stress%d

struct stats {
    s_lock  i64
    s_reqs  i64
    s_errs  i64
    s_local arr 4 8 align 8
}

proc bump {
    lock stats.s_lock param 0
    write stats.s_reqs shared 0
    write stats.s_errs shared 0
    unlock stats.s_lock param 0
    compute 20
}

proc worker {
    loop 8 {
        call bump
    }
}

arena stats 8
thread 0 worker params 0 iters 2
thread 1 worker params 1 iters 2
`

// stressCase is one configuration a worker can replay.
type stressCase struct {
	name string
	run  func() (string, error) // returns a canonical encoding of the result
}

// jsonCase is a stress case whose result canonicalizes as JSON.
func jsonCase(name string, run func() (any, error)) stressCase {
	return stressCase{name: name, run: func() (string, error) {
		v, err := run()
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(v)
		return string(b), err
	}}
}

// collectCase replays a cached collection; the encoding covers the cycle
// count and both canonical file encodings, so faulted artifacts must
// reproduce bit for bit too.
func collectCase(name string, file *irtext.File, cfg Config) stressCase {
	return stressCase{name: name, run: func() (string, error) {
		pf, tr, cycles, err := CollectCached(file, cfg)
		if err != nil {
			return "", err
		}
		var pbuf, tbuf bytes.Buffer
		if err := pf.WriteJSON(&pbuf); err != nil {
			return "", err
		}
		if err := tr.WriteJSON(&tbuf); err != nil {
			return "", err
		}
		return fmt.Sprintf("%d\n%s\n%s", cycles, pbuf.String(), tbuf.String()), nil
	}}
}

func stressCases(t *testing.T) []stressCase {
	t.Helper()
	topo, err := machine.ByName("way16")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(src string) *irtext.File {
		file, err := irtext.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return file
	}
	var cases []stressCase

	// driver.MeasureCtx over two programs and two seeds.
	for p := 0; p < 2; p++ {
		file := parse(fmt.Sprintf(stressProgram, p))
		for seed := int64(1); seed <= 2; seed++ {
			cfg := Config{Topo: topo, Seed: seed}
			cases = append(cases, jsonCase(fmt.Sprintf("measure/p%d/s%d", p, seed), func() (any, error) {
				return MeasureCtx(context.Background(), file, cfg, nil, 3)
			}))
		}
	}

	// driver.CollectCached with and without fault injection.
	for _, spec := range []string{"", "loss=0.4,seed=9", "drift=0.5,seed=3"} {
		fs, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		label := spec
		if label == "" {
			label = "clean"
		}
		cases = append(cases, collectCase("collect/"+label, parse(fmt.Sprintf(stressProgram, 0)), Config{Topo: topo, Seed: 5, Inject: fs}))
	}

	// workload.Measure: the built-in suite's memoized path, sharing the
	// same process-wide cache and worker pool as the driver calls above.
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ls := suite.BaselineLayouts(128)
	for seed := int64(100); seed <= 101; seed++ {
		cases = append(cases, jsonCase(fmt.Sprintf("workload/s%d", seed), func() (any, error) {
			return suite.Measure(topo, ls, 3, seed)
		}))
	}
	return cases
}

func TestConcurrentCallersMatchSerial(t *testing.T) {
	replayMatchesSerial(t, stressCases(t))
}

// replayMatchesSerial computes every case once serially on a cold cache,
// then replays them all from many goroutines and requires each result to
// be byte-identical to its serial one.
func replayMatchesSerial(t *testing.T, cases []stressCase) {
	t.Helper()
	// Serial ground truth on a cold cache.
	memo.Shared().Clear()
	want := make(map[string]string, len(cases))
	for _, c := range cases {
		got, err := c.run()
		if err != nil {
			t.Fatalf("serial %s: %v", c.name, err)
		}
		want[c.name] = got
	}

	// Concurrent replay, twice over: round one races the cold cache (the
	// interesting window for single-flight and torn-write bugs), round two
	// hits the warm memory tier.
	for round, clear := range []bool{true, false} {
		if clear {
			memo.Shared().Clear()
		}
		const workers = 16
		var wg sync.WaitGroup
		errs := make(chan error, workers*len(cases))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker walks the cases at a different phase so distinct
				// keys race each other too, not just identical ones.
				for i := range cases {
					c := cases[(i+w)%len(cases)]
					got, err := c.run()
					if err != nil {
						errs <- fmt.Errorf("round %d worker %d %s: %w", round, w, c.name, err)
						return
					}
					if got != want[c.name] {
						errs <- fmt.Errorf("round %d worker %d %s: result differs from serial\n got: %.120s\nwant: %.120s",
							round, w, c.name, got, want[c.name])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
