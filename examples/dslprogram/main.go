// Dslprogram runs the full tool chain over a program written in the irtext
// DSL (webserver.slp): parse, collect profile and concurrency data, build
// the FLG, suggest a layout, and measure the before/after throughput on a
// simulated machine. This is the path a user outside this repository takes
// — the DSL plays the role of the C front end in the paper's pipeline.
//
//	go run ./examples/dslprogram
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"structlayout/internal/core"
	"structlayout/internal/driver"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
)

func main() {
	src, err := os.ReadFile(filepath.Join("examples", "dslprogram", "webserver.slp"))
	if err != nil {
		// Allow running from the example directory too.
		src, err = os.ReadFile("webserver.slp")
	}
	if err != nil {
		log.Fatal(err)
	}
	file, err := irtext.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	topo := machine.Bus4()
	cfg := driver.Config{Topo: topo, Seed: 7}
	fmt.Printf("program %s on %s\n\n", file.Prog.Name, topo.Name)

	// Collection phase: memoized like every collection, so a process that
	// collects this program again replays it.
	pf, trace, cycles, err := driver.CollectCached(file, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The simulator's false-sharing detector is ground truth the tool never
	// sees; the collector only observes the run, so an uncollected run with
	// the same seed shows what the collected one did.
	truth, err := driver.Run(file, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection: %d cycles, %d samples, %d false-sharing events\n",
		cycles, len(trace.Samples), truth.Coherence.FalseSharing)
	fmt.Printf("\ndetector view (ground truth):\n%s\n", truth.FalseSharingReport(file.Prog, 4))

	// The tool.
	analysis, err := core.NewAnalysis(file.Prog, pf, trace, core.Options{
		LineSize:    cfg.LineSize(),
		SliceCycles: cycles/64 + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := file.Prog.Struct("conn")
	orig, err := layout.Original(st, cfg.LineSize())
	if err != nil {
		log.Fatal(err)
	}
	sugg, err := analysis.Suggest("conn", orig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sugg.Report.String())

	// Evaluation: same program, same seeds, two layouts.
	measure := func(lay *layout.Layout) int64 {
		var worst int64
		for seed := int64(1); seed <= 3; seed++ {
			r, err := driver.Run(file, driver.Config{Topo: topo, Seed: seed},
				map[string]*layout.Layout{"conn": lay})
			if err != nil {
				log.Fatal(err)
			}
			if r.Cycles > worst {
				worst = r.Cycles
			}
		}
		return worst
	}
	before := measure(orig)
	after := measure(sugg.Auto)
	fmt.Printf("== evaluation on %s (worst of 3 runs) ==\n", topo.Name)
	fmt.Printf("  declaration order: %d cycles\n", before)
	fmt.Printf("  suggested layout:  %d cycles (%+.2f%%)\n",
		after, (float64(before)/float64(after)-1)*100)
}
