// Benchmark harness: one benchmark per figure of the paper's evaluation
// (§5) plus the §4.3 stability experiment and the ablations motivated in
// DESIGN.md. Heavy benchmarks report the regenerated figure values as
// custom metrics (percent speedup over the hand-tuned baseline), so
//
//	go test -bench=. -benchmem
//
// reproduces every number the paper's figures plot, in shape. The absolute
// throughputs come from the simulator; EXPERIMENTS.md records the
// paper-versus-measured comparison.
package structlayout_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"structlayout/internal/affinity"
	"structlayout/internal/cluster"
	"structlayout/internal/concurrency"
	"structlayout/internal/core"
	"structlayout/internal/driver"
	"structlayout/internal/experiments"
	"structlayout/internal/faults"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/workload"
)

// benchRuns keeps the heavy figure benchmarks to a sane wall clock; the
// command-line harness (cmd/experiments) uses the paper's full 10 runs.
const benchRuns = 2

var (
	pipeOnce sync.Once
	pipe     *experiments.Pipeline
	pipeErr  error
)

func sharedPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	pipeOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Runs = benchRuns
		pipe, pipeErr = experiments.NewPipeline(cfg)
	})
	if pipeErr != nil {
		b.Fatal(pipeErr)
	}
	return pipe
}

// reportRows publishes each struct's speedups as benchmark metrics.
func reportRows(b *testing.B, fig *experiments.Figure) {
	for _, row := range fig.Rows {
		for name, pct := range row.Pct {
			b.ReportMetric(pct, "pct_"+row.Label+"_"+name)
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8: automatic layout and
// sort-by-hotness versus the hand-tuned baseline on the 128-way machine.
func BenchmarkFigure8(b *testing.B) {
	p := sharedPipeline(b)
	for i := 0; i < b.N; i++ {
		fig, err := p.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + fig.String())
			reportRows(b, fig)
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: the automatic layouts on the
// 4-way bus machine (marginal speedups everywhere).
func BenchmarkFigure9(b *testing.B) {
	p := sharedPipeline(b)
	for i := 0; i < b.N; i++ {
		fig, err := p.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + fig.String())
			reportRows(b, fig)
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10: the best layout per struct on
// the 128-way machine (incremental for A and B, automatic for C and D).
func BenchmarkFigure10(b *testing.B) {
	p := sharedPipeline(b)
	for i := 0; i < b.N; i++ {
		fig, err := p.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + fig.String())
			reportRows(b, fig)
		}
	}
}

// BenchmarkConcurrencyStability regenerates the §4.3 observation that the
// high-CC source-line pairs are stable between the 4-way and 16-way
// collection machines.
func BenchmarkConcurrencyStability(b *testing.B) {
	p := sharedPipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.ConcurrencyStability(20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log(res.String())
			b.ReportMetric(res.TopOverlap*100, "overlap_pct")
			b.ReportMetric(res.RankCorrelation, "rank_corr")
		}
	}
}

// BenchmarkFigure5Affinity measures affinity-graph construction on the
// paper's Figure 4 example (the Figure 5 graph).
func BenchmarkFigure5Affinity(b *testing.B) {
	prog := ir.NewProgram("fig4")
	s := ir.NewStruct("S", ir.I64("f1"), ir.I64("f2"), ir.I64("f3"))
	prog.AddStruct(s)
	pr := prog.NewProc("snippet")
	pr.Write(s, "f1", ir.Shared(0))
	pr.Write(s, "f2", ir.Shared(0))
	pr.Loop(100, func(bd *ir.Builder) {
		bd.Write(s, "f3", ir.Shared(0))
		bd.Read(s, "f3", ir.Shared(0))
		bd.Read(s, "f1", ir.Shared(0))
		bd.Read(s, "f3", ir.Shared(0))
	})
	pr.Done()
	prog.MustFinalize()
	pf, err := profile.StaticEstimate(prog, []string{"snippet"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := affinity.Build(prog, pf, s)
		if g.Weight(0, 2) == 0 {
			b.Fatal("missing affinity edge")
		}
	}
}

// BenchmarkSDETRun measures the raw simulator: one full SDET-like run on
// each evaluation machine under baseline layouts.
func BenchmarkSDETRun(b *testing.B) {
	for _, topoFn := range []func() *machine.Topology{machine.Bus4, machine.Way16, machine.Superdome128} {
		topo := topoFn()
		b.Run(topo.Name, func(b *testing.B) {
			suite, err := workload.NewSuite(workload.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			base := suite.BaselineLayouts(128)
			b.ResetTimer()
			var accesses uint64
			for i := 0; i < b.N; i++ {
				res, err := suite.RunOnce(topo, base, int64(i+1), nil)
				if err != nil {
					b.Fatal(err)
				}
				accesses = res.Coherence.Accesses
			}
			b.ReportMetric(float64(accesses), "mem_accesses/run")
		})
	}
}

// collectProgram is a DSL program the size of the large programs layoutd
// collects afresh: one 120-field struct whose fields four thread roles
// split among themselves, each touching its own fields on a per-thread
// instance and taking a shared lock to bump a contended counter, run by
// 16 threads.
func collectProgram() string {
	const fields, roles, threads = 118, 4, 16
	var b strings.Builder
	b.WriteString("program collectbench\n\nstruct rec {\n    lk i64\n    hot i64\n")
	for f := 0; f < fields; f++ {
		fmt.Fprintf(&b, "    f%d i64\n", f)
	}
	b.WriteString("}\n\nregion buf 65536 perthread\n")
	for r := 0; r < roles; r++ {
		fmt.Fprintf(&b, "\nproc role%d {\n    loop 8 {\n", r)
		for f := r; f < fields; f += roles {
			op := "read"
			if f%3 == 0 {
				op = "write"
			}
			fmt.Fprintf(&b, "        %s rec.f%d param 0\n", op, f)
		}
		fmt.Fprintf(&b, "        read rec.f%d shared 0\n        compute %d\n    }\n", fields-1-r, 20+5*r)
		b.WriteString("    lock rec.lk shared 0\n    write rec.hot shared 0\n    unlock rec.lk shared 0\n")
		b.WriteString("    memsweep buf write 512\n    compute 60\n}\n")
	}
	fmt.Fprintf(&b, "\narena rec %d\n", threads+2)
	for t := 0; t < threads; t++ {
		fmt.Fprintf(&b, "thread %d role%d params %d iters 8\n", t, t%roles, t+1)
	}
	return b.String()
}

// BenchmarkCollectDSL measures one collection phase (driver.Collect: a
// profiled, sampled run on the default 6 MB Itanium cache) of a 16-thread
// DSL program on each collection machine. Bus4 runs the four threads that
// fit on its CPUs. B/op is the simulated caches' storage plus the
// profile and trace.
func BenchmarkCollectDSL(b *testing.B) {
	file, err := irtext.Parse(collectProgram())
	if err != nil {
		b.Fatal(err)
	}
	for _, topoFn := range []func() *machine.Topology{machine.Bus4, machine.Way16} {
		topo := topoFn()
		b.Run(topo.Name, func(b *testing.B) {
			b.ReportAllocs()
			var samples int
			for i := 0; i < b.N; i++ {
				res, err := driver.Collect(file, driver.Config{Topo: topo, Seed: 1}, nil)
				if err != nil {
					b.Fatal(err)
				}
				samples = len(res.Trace.Samples)
			}
			b.ReportMetric(float64(samples), "samples/run")
		})
	}
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// ablationAutoA builds a pipeline variant and reports auto(A)'s and
// auto(B)'s Superdome speedups under it.
func ablationAutoA(b *testing.B, mutate func(*experiments.Config)) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = benchRuns
	mutate(&cfg)
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	topo := machine.Superdome128()
	for i := 0; i < b.N; i++ {
		base, err := p.Suite.Measure(topo, p.Baselines, cfg.Runs, cfg.BaseSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, label := range []string{"A", "B"} {
			m, err := p.Suite.Measure(topo, p.Baselines.WithLayout(label, p.Auto[label]), cfg.Runs, cfg.BaseSeed)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(m.SpeedupOver(base), "pct_"+label+"_auto")
			}
		}
	}
}

// BenchmarkAblationNoAlias drops the alias-analysis mitigation, letting
// instance-blind CodeConcurrency over-separate private fields.
func BenchmarkAblationNoAlias(b *testing.B) {
	ablationAutoA(b, func(cfg *experiments.Config) {
		cfg.Tool.FLG.AliasOracle = func(b1, b2 ir.BlockID) bool { return false }
	})
}

// BenchmarkAblationK2 sweeps the CycleLoss constant: k2=0 ignores false
// sharing entirely (locality-only), larger k2 separates more aggressively.
func BenchmarkAblationK2(b *testing.B) {
	for _, k2 := range []float64{0.25, 1, 8} {
		name := map[float64]string{0.25: "k2=0.25", 1: "k2=1", 8: "k2=8"}[k2]
		b.Run(name, func(b *testing.B) {
			ablationAutoA(b, func(cfg *experiments.Config) {
				cfg.Tool.FLG.K2 = k2
			})
		})
	}
}

// BenchmarkConcurrencyCompute measures the CodeConcurrency computation
// itself over a real collected trace, at the default and a coarser slice.
func BenchmarkConcurrencyCompute(b *testing.B) {
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	_, trace, err := suite.Collect(machine.Way16(), suite.BaselineLayouts(128), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, slice := range []int64{workload.CollectSliceCycles, 10 * workload.CollectSliceCycles} {
		name := "slice=1x"
		if slice != workload.CollectSliceCycles {
			name = "slice=10x"
		}
		b.Run(name, func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				cm, err := concurrency.Compute(trace, concurrency.Options{SliceCycles: slice})
				if err != nil {
					b.Fatal(err)
				}
				pairs = len(cm.CC)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkFLGBuild measures FLG construction for struct A from collected
// data (affinity + concurrency join, then the edge order), the work
// core.Analysis does on a struct's first BuildFLG.
func BenchmarkFLGBuild(b *testing.B) {
	p := sharedPipeline(b)
	a := p.Analysis
	st := a.Prog.Struct(p.Suite.Struct("A").Type.Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := flg.Build(affinity.Build(a.Prog, a.Profile, st), a.Concurrency, a.FMF, a.Opts.FLG)
		if edges := g.Edges(); len(edges) == 0 || edges[len(edges)-1].Weight() >= 0 {
			b.Fatal("struct A must have negative edges")
		}
	}
}

// BenchmarkGreedyClustering measures the Figure 6/7 algorithm on struct A's
// >100-field FLG and on the 120-field struct of collectProgram collected on
// Way16, the shape of layoutd's largest fresh requests.
func BenchmarkGreedyClustering(b *testing.B) {
	p := sharedPipeline(b)
	a, err := p.Analysis.BuildFLG(p.Suite.Struct("A").Type.Name)
	if err != nil {
		b.Fatal(err)
	}
	file, err := irtext.Parse(collectProgram())
	if err != nil {
		b.Fatal(err)
	}
	cfg := driver.Config{Topo: machine.Way16(), Seed: 1}
	res, err := driver.Collect(file, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	an, err := core.NewAnalysis(file.Prog, res.Profile, res.Trace, driver.AnalysisOptions(file, cfg.LineSize(), res.Cycles, faults.New(1), false))
	if err != nil {
		b.Fatal(err)
	}
	rec, err := an.BuildFLG("rec")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *flg.Graph
	}{{"A", a}, {"fields120", rec}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := cluster.Greedy(c.g, 128); len(res.Clusters) == 0 {
					b.Fatal("no clusters")
				}
			}
			b.ReportMetric(float64(len(c.g.Pairs)), "pairs")
		})
	}
}

// BenchmarkMachineSizeSensitivity measures how the sort-by-hotness layout's
// struct-A damage grows with machine size — the paper's motivating claim
// that false-sharing cost ranges from "the order of an L2 miss" on a small
// bus machine to 1000+ cycles on a big Superdome (§1, §5).
func BenchmarkMachineSizeSensitivity(b *testing.B) {
	p := sharedPipeline(b)
	for _, topoFn := range []func() *machine.Topology{
		machine.Bus4, machine.Way16, machine.Superdome32, machine.Superdome64, machine.Superdome128,
	} {
		topo := topoFn()
		b.Run(topo.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := p.Suite.Measure(topo, p.Baselines, benchRuns, p.Cfg.BaseSeed)
				if err != nil {
					b.Fatal(err)
				}
				m, err := p.Suite.Measure(topo, p.Baselines.WithLayout("A", p.Hotness["A"]), benchRuns, p.Cfg.BaseSeed)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(m.SpeedupOver(base), "pct_A_hotness")
				}
			}
		})
	}
}
