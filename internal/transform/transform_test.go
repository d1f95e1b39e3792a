package transform

import (
	"reflect"
	"strings"
	"testing"

	"structlayout/internal/ir"
	"structlayout/internal/profile"
)

func mustSplit(t testing.TB, p *ir.Program, pf *profile.Profile, st *ir.StructType) *SplitAdvice {
	t.Helper()
	adv, err := Split(p, pf, st, 128)
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// hotColdProgram: two hot fields, one warm, many cold, two never touched.
func hotColdProgram(t testing.TB) (*ir.Program, *ir.StructType, *profile.Profile) {
	t.Helper()
	p := ir.NewProgram("hc")
	fields := []ir.Field{
		ir.I64("hot_a"), ir.I64("hot_b"), ir.I64("warm"),
		ir.Arr("cold_buf", 32, 8, 8), // 256 bytes of cold state
		ir.I64("cold_x"), ir.I64("dead_y"), ir.I64("dead_z"),
	}
	s := ir.NewStruct("S", fields...)
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Loop(10000, func(b *ir.Builder) {
		b.Read(s, "hot_a", ir.Shared(0))
		b.Write(s, "hot_b", ir.Shared(0))
	})
	b.Loop(50, func(b *ir.Builder) {
		b.Read(s, "warm", ir.Shared(0))
	})
	b.Read(s, "cold_buf", ir.Shared(0))
	b.Read(s, "cold_x", ir.Shared(0))
	b.Done()
	p.MustFinalize()
	pf, err := profile.StaticEstimate(p, []string{"main"})
	if err != nil {
		t.Fatal(err)
	}
	return p, s, pf
}

func TestSplitPartitionsByHeat(t *testing.T) {
	p, s, pf := hotColdProgram(t)
	adv := mustSplit(t, p, pf, s)
	hotSet := map[int]bool{}
	for _, fi := range adv.Hot {
		hotSet[fi] = true
	}
	if !hotSet[s.FieldIndex("hot_a")] || !hotSet[s.FieldIndex("hot_b")] {
		t.Fatalf("hot fields misclassified: %v", adv.Hot)
	}
	// warm = 50 refs vs hottest 10000: below the 1% threshold -> cold.
	if hotSet[s.FieldIndex("warm")] {
		t.Fatal("warm should be cold at the default threshold")
	}
	if len(adv.Dead) != 2 {
		t.Fatalf("dead = %v, want the two never-touched fields", adv.Dead)
	}
	// Partition covers every field exactly once.
	if len(adv.Hot)+len(adv.Cold) != s.NumFields() {
		t.Fatalf("partition sizes %d+%d != %d", len(adv.Hot), len(adv.Cold), s.NumFields())
	}
	if !adv.Worthwhile() {
		t.Fatalf("split should shrink the footprint: %+v", adv)
	}
	if adv.HotLines >= adv.OrigLines {
		t.Fatalf("hot lines %d not below original %d", adv.HotLines, adv.OrigLines)
	}
}

func TestSplitColdThreshold(t *testing.T) {
	// The cut sits at 1% of the hottest field's 10000 references: 100
	// references is cold, 101 is hot.
	p := ir.NewProgram("threshold")
	s := ir.NewStruct("S", ir.I64("hot"), ir.I64("at"), ir.I64("above"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Loop(10000, func(b *ir.Builder) { b.Read(s, "hot", ir.Shared(0)) })
	b.Loop(100, func(b *ir.Builder) { b.Read(s, "at", ir.Shared(0)) })
	b.Loop(101, func(b *ir.Builder) { b.Read(s, "above", ir.Shared(0)) })
	b.Done()
	p.MustFinalize()
	pf, err := profile.StaticEstimate(p, []string{"main"})
	if err != nil {
		t.Fatal(err)
	}
	adv := mustSplit(t, p, pf, s)
	if want := []int{s.FieldIndex("at")}; !reflect.DeepEqual(adv.Cold, want) {
		t.Fatalf("cold = %v, want %v", adv.Cold, want)
	}
}

func TestSplitCutWeight(t *testing.T) {
	// cold_x is referenced in 50 of hot's 10000 loop iterations: cold, but
	// in hot's affinity group, so the split cuts their Minimum-Heuristic
	// weight min(10000, 50).
	p := ir.NewProgram("cut")
	s := ir.NewStruct("S", ir.I64("hot"), ir.I64("cold_x"), ir.I64("alone"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Loop(10000, func(b *ir.Builder) {
		b.Read(s, "hot", ir.Shared(0))
		b.If(0.005, func(b *ir.Builder) { b.Read(s, "cold_x", ir.Shared(0)) })
	})
	b.Read(s, "alone", ir.Shared(0))
	b.Done()
	p.MustFinalize()
	pf, err := profile.StaticEstimate(p, []string{"main"})
	if err != nil {
		t.Fatal(err)
	}
	adv := mustSplit(t, p, pf, s)
	if want := []int{s.FieldIndex("cold_x"), s.FieldIndex("alone")}; !reflect.DeepEqual(adv.Cold, want) {
		t.Fatalf("cold = %v, want %v", adv.Cold, want)
	}
	if adv.CutWeight != 50 {
		t.Fatalf("cut weight = %v, want 50", adv.CutWeight)
	}
}

func TestSplitAllHot(t *testing.T) {
	p := ir.NewProgram("allhot")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Loop(100, func(b *ir.Builder) {
		b.Read(s, "a", ir.Shared(0))
		b.Read(s, "b", ir.Shared(0))
	})
	b.Done()
	p.MustFinalize()
	pf, _ := profile.StaticEstimate(p, []string{"main"})
	adv := mustSplit(t, p, pf, s)
	if len(adv.Cold) != 0 || adv.Worthwhile() {
		t.Fatalf("uniformly hot struct should not split: %+v", adv)
	}
}

func TestAdvisoryText(t *testing.T) {
	p, s, pf := hotColdProgram(t)
	text := mustSplit(t, p, pf, s).String()
	for _, want := range []string{"hot/cold split advisory", "dead (never referenced): dead_y dead_z", "verdict: worthwhile"} {
		if !strings.Contains(text, want) {
			t.Fatalf("advisory missing %q:\n%s", want, text)
		}
	}
}
