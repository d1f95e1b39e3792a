package workload

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
)

func newSuite(t testing.TB) *Suite {
	t.Helper()
	s, err := NewSuite(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStructShapesMatchPaper(t *testing.T) {
	a := StructA()
	if n := a.Type.NumFields(); n <= 100 {
		t.Fatalf("struct A has %d fields; the paper's A has more than one hundred", n)
	}
	for _, ks := range AllStructs() {
		if ks.Type.NumFields() < 20 {
			t.Fatalf("struct %s has only %d fields; B..E should have many", ks.Label, ks.Type.NumFields())
		}
		lay := ks.Baseline(128)
		if err := lay.Validate(); err != nil {
			t.Fatalf("struct %s baseline: %v", ks.Label, err)
		}
		if lay.NumLines() < 2 {
			t.Fatalf("struct %s spans %d lines; transformed layouts must span multiple cache lines (§5.1)",
				ks.Label, lay.NumLines())
		}
	}
}

func TestBaselineAIsolation(t *testing.T) {
	a := StructA()
	lay := a.Baseline(128)
	// Each statistics counter must own its cache line (no other stat and no
	// hot read field on it).
	for i := 0; i < NumStatClasses; i++ {
		si := a.Type.FieldIndex(nameStat(i))
		for j := 0; j < NumStatClasses; j++ {
			if i == j {
				continue
			}
			if lay.SameLine(si, a.Type.FieldIndex(nameStat(j))) {
				t.Fatalf("baseline A: stat%d and stat%d share a line", i, j)
			}
		}
		for _, hot := range []string{"pt_state", "pt_pid", "pt_vm0"} {
			if lay.SameLine(si, a.Type.FieldIndex(hot)) {
				t.Fatalf("baseline A: stat%d shares a line with %s", i, hot)
			}
		}
	}
	// The planted mistake: pt_seq lives in the hot read line.
	if !lay.SameLine(a.Type.FieldIndex("pt_seq"), a.Type.FieldIndex("pt_state")) {
		t.Fatal("baseline A: pt_seq should share the hot line (the planted hazard)")
	}
	// pt_load is isolated from the hot reads.
	if lay.SameLine(a.Type.FieldIndex("pt_load"), a.Type.FieldIndex("pt_state")) {
		t.Fatal("baseline A: pt_load must not share the hot read line")
	}
	// The VM walk group is contiguous on one line.
	for i := 1; i < 6; i++ {
		if !lay.SameLine(a.Type.FieldIndex("pt_vm0"), a.Type.FieldIndex(nameVM(i))) {
			t.Fatalf("baseline A: pt_vm0 and pt_vm%d on different lines", i)
		}
	}
}

func nameStat(i int) string { return "pt_stat" + string(rune('0'+i)) }
func nameVM(i int) string   { return "pt_vm" + string(rune('0'+i)) }

func TestBaselineBPlantedRefcnt(t *testing.T) {
	b := StructB()
	lay := b.Baseline(128)
	st := b.Type
	if !lay.SameLine(st.FieldIndex("vn_refcnt"), st.FieldIndex("vn_type")) {
		t.Fatal("baseline B: vn_refcnt should share the hot line (the planted hazard)")
	}
	if !lay.SameLine(st.FieldIndex("vn_hash"), st.FieldIndex("vn_next")) {
		t.Fatal("baseline B: the hash-chain pair should be together")
	}
}

func TestSuiteConstruction(t *testing.T) {
	s := newSuite(t)
	if s.Prog.NumBlocks() == 0 {
		t.Fatal("program has no blocks")
	}
	for _, label := range Labels() {
		if s.Struct(label) == nil {
			t.Fatalf("missing struct %s", label)
		}
	}
	for cpu := 0; cpu < 16; cpu++ {
		if s.Prog.Proc(s.EntryFor(cpu)) == nil {
			t.Fatalf("missing entry proc for cpu %d", cpu)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	bad := DefaultParams()
	bad.ScriptsPerThread = 0
	if _, err := NewSuite(bad); err == nil {
		t.Fatal("zero ScriptsPerThread accepted")
	}
	bad = DefaultParams()
	bad.Cache.Sets = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("bad cache accepted")
	}
}

func TestThreadParamsPrivateInstancesDistinct(t *testing.T) {
	s := newSuite(t)
	seenProc := map[int]bool{}
	seenVnode := map[int]bool{}
	for cpu := 0; cpu < 128; cpu++ {
		ps := s.ThreadParams(cpu)
		if seenProc[ps[ParamProc]] {
			t.Fatalf("proc instance %d reused", ps[ParamProc])
		}
		seenProc[ps[ParamProc]] = true
		if seenVnode[ps[ParamVnode]] {
			t.Fatalf("vnode instance %d reused", ps[ParamVnode])
		}
		seenVnode[ps[ParamVnode]] = true
		if ps[ParamVnode] < numMounts {
			t.Fatalf("vnode instance %d collides with mounts", ps[ParamVnode])
		}
		if ps[ParamProc] == 0 {
			t.Fatal("no thread may own the shared proc entry (instance 0)")
		}
		if ps[ParamMount] < 0 || ps[ParamMount] >= numMounts {
			t.Fatalf("mount index %d out of range", ps[ParamMount])
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	s := newSuite(t)
	base := s.BaselineLayouts(128)
	topo := machine.Way16()
	r1, err := s.RunOnce(topo, base, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunOnce(topo, base, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Completed != r2.Completed {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", r1.Cycles, r1.Completed, r2.Cycles, r2.Completed)
	}
	if r1.Coherence != r2.Coherence {
		t.Fatalf("coherence stats differ:\n%+v\n%+v", r1.Coherence, r2.Coherence)
	}
}

func TestSeedsVaryOutcome(t *testing.T) {
	s := newSuite(t)
	base := s.BaselineLayouts(128)
	topo := machine.Bus4()
	r1, _ := s.RunOnce(topo, base, 1, nil)
	r2, _ := s.RunOnce(topo, base, 2, nil)
	if r1.Cycles == r2.Cycles {
		t.Fatal("different seeds produced identical cycle counts; runs would have zero variance")
	}
}

func TestThroughputMetric(t *testing.T) {
	s := newSuite(t)
	topo := machine.Bus4()
	res, err := s.RunOnce(topo, s.BaselineLayouts(128), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != int64(topo.NumCPUs())*s.Params.ScriptsPerThread {
		t.Fatalf("completed = %d", res.Completed)
	}
	tput := Throughput(topo, res)
	want := float64(res.Completed) / (float64(res.Cycles) / topo.ClockHz) * 3600
	if tput != want {
		t.Fatalf("throughput = %v, want %v", tput, want)
	}
}

func TestMeasureProtocol(t *testing.T) {
	s := newSuite(t)
	m, err := s.Measure(machine.Bus4(), s.BaselineLayouts(128), 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 4 || m.Mean <= 0 {
		t.Fatalf("measurement = %+v", m)
	}
	if _, err := s.Measure(machine.Bus4(), nil, 0, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestCollectProducesProfileAndTrace(t *testing.T) {
	s := newSuite(t)
	pf, trace, err := s.Collect(machine.Way16(), s.BaselineLayouts(128), 5)
	if err != nil {
		t.Fatal(err)
	}
	if pf == nil || trace == nil || len(trace.Samples) == 0 {
		t.Fatal("collection produced no data")
	}
	nonzero := 0
	for _, c := range pf.Blocks {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < s.Prog.NumBlocks()/2 {
		t.Fatalf("only %d of %d blocks executed", nonzero, s.Prog.NumBlocks())
	}
}

func TestPrivateAliasOracle(t *testing.T) {
	s := newSuite(t)
	oracle := PrivateAliasOracle(s.Prog)
	var privBlock, sharedBlock, mountBlock ir.BlockID = -1, -1, -1
	for _, blk := range s.Prog.Blocks() {
		instrs := blk.FieldInstrs()
		if len(instrs) == 0 {
			continue
		}
		allPriv, anyShared, anyMount := true, false, false
		for _, in := range instrs {
			switch in.Inst.Kind {
			case ir.InstShared, ir.InstLoopVar:
				anyShared = true
				allPriv = false
			case ir.InstParam:
				if in.Inst.Index == ParamMount {
					anyMount = true
					allPriv = false
				}
			}
		}
		if allPriv && privBlock < 0 {
			privBlock = blk.Global
		}
		if anyShared && sharedBlock < 0 {
			sharedBlock = blk.Global
		}
		if anyMount && mountBlock < 0 {
			mountBlock = blk.Global
		}
	}
	if privBlock < 0 || sharedBlock < 0 || mountBlock < 0 {
		t.Fatalf("blocks not found: priv=%d shared=%d mount=%d", privBlock, sharedBlock, mountBlock)
	}
	if !oracle(privBlock, privBlock) {
		t.Fatal("two private blocks should be non-aliasing")
	}
	if oracle(privBlock, sharedBlock) {
		t.Fatal("shared-instance block must alias")
	}
	if oracle(privBlock, mountBlock) {
		t.Fatal("mount block must alias")
	}
}

func TestWithLayoutDoesNotMutate(t *testing.T) {
	s := newSuite(t)
	base := s.BaselineLayouts(128)
	alt := s.Struct("A").Baseline(128)
	alt.Name = "alt"
	derived := base.WithLayout("A", alt)
	if base["A"].Name == "alt" {
		t.Fatal("WithLayout mutated the receiver")
	}
	if derived["A"].Name != "alt" || derived["B"] != base["B"] {
		t.Fatal("WithLayout result wrong")
	}
}

// TestBaselineFingerprints pins the hand-tuned baseline layouts. The
// experiment calibration (EXPERIMENTS.md) depends on these exact layouts;
// if a struct definition or baseline order changes, the figures must be
// recalibrated and these fingerprints updated deliberately.
func TestBaselineFingerprints(t *testing.T) {
	want := map[string]string{
		"A": "dde70bbaf8bd832b",
		"B": "7476001bf17d6216",
		"C": "09ecc28f0e842a7c",
		"D": "345fe140506488f9",
		"E": "9b7b02fa8ed2b19e",
	}
	for _, ks := range AllStructs() {
		h := sha256.Sum256([]byte(ks.Baseline(128).Dump()))
		got := fmt.Sprintf("%x", h[:8])
		if got != want[ks.Label] {
			t.Errorf("struct %s baseline fingerprint %s != %s — baseline changed; "+
				"recalibrate the experiments and update EXPERIMENTS.md before updating this test",
				ks.Label, got, want[ks.Label])
		}
	}
}

// suiteKeys returns the keys Suite.Measure (3 runs from seed 1) and
// Suite.Collect (seed 1) give the suite's baseline layouts on topo, with f
// in place of the suite's file.
func suiteKeys(t *testing.T, s *Suite, f *irtext.File, topo *machine.Topology) [2]memo.Key {
	t.Helper()
	ls := s.StructLayouts(s.BaselineLayouts(128))
	mk, mok := MeasureKey("measure", f, topo, s.Params.Cache, 1, ls, 3)
	ck, cok := CollectKey(f, topo, s.Params.Cache, 1, ls, nil)
	if !mok || !cok {
		t.Fatalf("%s has no key", f.Prog.Name)
	}
	return [2]memo.Key{mk, ck}
}

// TestMemoKeyPins pins the measure and collect keys of one fixed built-in
// configuration. A moved key orphans every disk-cache entry written under
// the old one, so a pin changes only together with memo.SchemaVersion.
func TestMemoKeyPins(t *testing.T) {
	s := newSuite(t)
	mk := suiteKeys(t, s, s.File(machine.Superdome128()), machine.Superdome128())[0]
	ck := suiteKeys(t, s, s.File(machine.Way16()), machine.Way16())[1]
	got := map[string]string{"measure": fmt.Sprintf("%x", mk[:]), "collect": fmt.Sprintf("%x", ck[:])}
	want := map[string]string{
		"measure": "95b2e9fbb688baf6b91127f4cf4e8b6f9f34dbb795bceca1f58c69c8f9494d11",
		"collect": "69799d52875fdc908a68d9322378e8884dcaa859728bcca1748e39a4f60e8d80",
	}
	for kind, k := range got {
		if k != want[kind] {
			t.Errorf("%s key %s, pinned %s", kind, k, want[kind])
		}
	}
}

// TestMemoKeysHashProgram: the suite's keys hash its program and harness
// as irtext.Format prints them, so the suite parsed back from that text
// keys the same cells, and an edit to its program or its harness keys
// them apart: a warm cache never replays an edited program's old numbers.
func TestMemoKeysHashProgram(t *testing.T) {
	s := newSuite(t)
	topo := machine.Bus4()
	src := irtext.Format(s.File(topo))
	parse := func(src string) *irtext.File {
		t.Helper()
		f, err := irtext.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	built := suiteKeys(t, s, s.File(topo), topo)
	if suiteKeys(t, s, parse(src), topo) != built {
		t.Error("the suite parsed back from its text keys other cells than the built suite")
	}
	if suiteKeys(t, s, newSuite(t).File(topo), topo) != built {
		t.Error("two equal suites key one cell apart")
	}
	for _, e := range []struct{ name, old, new string }{
		{"compute cycles", "    compute 80\n", "    compute 800\n"}, // vfs_lookup's per-lookup work
		{"branch probability", "if 0.98 {", "if 0.97 {"},
		{"trip count", "loop 384 {", "loop 385 {"},
		{"field name", "pt_stat2 ", "pt_statx "}, // the declaration and every access
		{"arena count", "arena proc_entry 512\n", "arena proc_entry 513\n"},
		{"thread parameter", "thread 1 script_1 params 9 7 1 5 ", "thread 1 script_1 params 9 7 1 6 "},
	} {
		if !strings.Contains(src, e.old) {
			t.Fatalf("%s: the suite's text holds no %q", e.name, e.old)
		}
		edited := suiteKeys(t, s, parse(strings.ReplaceAll(src, e.old, e.new)), topo)
		if edited[0] == built[0] || edited[1] == built[1] {
			t.Errorf("%s: an edited file shares the suite's keys (measure %v, collect %v)",
				e.name, edited[0] == built[0], edited[1] == built[1])
		}
	}
}

// TestSuiteFile pins SDET's harness as a File states it: one arena per
// kernel struct (runqueues padded to one per CPU) and one script thread
// per CPU with its parameter vector.
func TestSuiteFile(t *testing.T) {
	for _, topo := range []*machine.Topology{machine.Bus4(), machine.Superdome128()} {
		s := newSuite(t)
		f := s.File(topo)
		if f.Prog != s.Prog {
			t.Fatalf("%s: file does not carry the suite's program", topo.Name)
		}
		if len(f.Arenas) != len(Labels()) {
			t.Fatalf("%s: %d arenas, want %d", topo.Name, len(f.Arenas), len(Labels()))
		}
		for _, label := range Labels() {
			ks := s.Struct(label)
			want := ks.ArenaCount
			if label == "D" {
				want = max(ks.ArenaCount, topo.NumCPUs())
			}
			if got := f.Arenas[ks.Type.Name]; got != want {
				t.Errorf("%s: arena %s (%s) holds %d, want %d", topo.Name, label, ks.Type.Name, got, want)
			}
		}
		if len(f.Threads) != topo.NumCPUs() {
			t.Fatalf("%s: %d threads, want one per CPU", topo.Name, len(f.Threads))
		}
		for i, td := range f.Threads {
			want := irtext.ThreadDecl{
				CPU:    i,
				Proc:   fmt.Sprintf("script_%d", i%8),
				Params: []int{i + 8, 4 + 3*i, i % 4, 5 * i},
				Iters:  s.Params.ScriptsPerThread,
			}
			if !reflect.DeepEqual(td, want) {
				t.Fatalf("%s: thread %d = %+v, want %+v", topo.Name, i, td, want)
			}
		}
		// A kernel arena smaller than the machine pads only the runqueues.
		s.Struct("D").ArenaCount = 2
		s.Struct("A").ArenaCount = 2
		f = s.File(topo)
		if got := f.Arenas[s.Struct("D").Type.Name]; got != topo.NumCPUs() {
			t.Errorf("%s: 2-instance runqueue arena holds %d, want %d", topo.Name, got, topo.NumCPUs())
		}
		if got := f.Arenas[s.Struct("A").Type.Name]; got != 2 {
			t.Errorf("%s: 2-instance proc arena holds %d, want 2", topo.Name, got)
		}
	}
}
