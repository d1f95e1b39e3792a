package report

import (
	"strings"
	"testing"

	"structlayout/internal/affinity"
	"structlayout/internal/cluster"
	"structlayout/internal/diag"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/quality"
)

func fixture(t testing.TB) (*flg.Graph, cluster.Result, *layout.Layout, *layout.Layout) {
	t.Helper()
	st := ir.NewStruct("S", ir.I64("hot1"), ir.I64("hot2"), ir.I64("wr"), ir.I64("cold"))
	hot := map[int]float64{0: 100, 1: 90, 2: 40, 3: 1}
	ag := &affinity.Graph{Struct: st, Weights: map[[2]int]float64{}, Hotness: hot}
	g := &flg.Graph{
		Struct: st,
		Pairs: map[[2]int]flg.Edge{
			{0, 1}: {F1: 0, F2: 1, Gain: 500},
			{0, 2}: {F1: 0, F2: 2, Loss: 300},
			{1, 2}: {F1: 1, F2: 2, Loss: 250},
		},
		Affinity: ag,
	}
	res := cluster.Greedy(g, 128)
	lay, err := layout.PackClusters(st, "flg-auto", res.Clusters, 128, cluster.SeparatePredicate(g, res.Clusters))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := layout.Original(st, 128)
	if err != nil {
		t.Fatal(err)
	}
	return g, res, lay, orig
}

func TestReportContents(t *testing.T) {
	g, res, lay, orig := fixture(t)
	r := &Report{Graph: g, Clustering: res, Suggested: lay, Original: orig}
	text := r.String()
	for _, want := range []string{
		"layout advisory for struct S",
		"intra-cluster weight",
		"inter-cluster weight",
		"large positive edges",
		"hot1                 ~ hot2",
		"large negative edges",
		"x wr", // most negative listed (hot1 x wr)
		"suggested layout",
		"C definition",
		"uint64_t",
		"original layout",
		"movement",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestReportWithoutOriginal(t *testing.T) {
	g, res, lay, _ := fixture(t)
	r := &Report{Graph: g, Clustering: res, Suggested: lay}
	text := r.String()
	if strings.Contains(text, "original layout") {
		t.Fatal("report should omit the original section when absent")
	}
}

func TestReportQualitySurfaced(t *testing.T) {
	g, res, lay, orig := fixture(t)
	mk := func(score float64) *Report {
		return &Report{Graph: g, Clustering: res, Suggested: lay, Original: orig,
			Quality: &quality.Assessment{Score: score, HasTrace: true}}
	}

	clean := mk(1.0).String()
	if !strings.Contains(clean, "-- measurement quality --") {
		t.Fatalf("assessment not surfaced:\n%s", clean)
	}
	if strings.Contains(clean, "SUSPECT") {
		t.Fatalf("clean report carries a SUSPECT banner:\n%s", clean)
	}

	suspect := mk(quality.SuspectBelow - 0.01).String()
	if !strings.Contains(suspect, "???? SUSPECT") {
		t.Fatalf("suspect-score report missing the banner:\n%s", suspect)
	}

	// A degraded diagnostic escalates past the numeric verdict: the
	// DEGRADED banner wins even when the score alone would grade OK.
	r := mk(1.0)
	r.Diagnostics = diag.NewLog()
	r.Diagnostics.Add(diag.Degraded, "core", "trace-quality", "test escalation")
	if v := r.QualityVerdict(); v != quality.Degraded {
		t.Fatalf("verdict = %v, want escalation to Degraded", v)
	}
	if text := r.String(); !strings.Contains(text, "!!!! DEGRADED") {
		t.Fatalf("escalated report missing the DEGRADED banner:\n%s", text)
	}
}

func TestDiff(t *testing.T) {
	_, _, lay, orig := fixture(t)
	d := Diff(orig, lay)
	if strings.Contains(d, "no fields changed") {
		t.Fatalf("expected movement between layouts:\n%s", d)
	}
	same := Diff(orig, orig)
	if !strings.Contains(same, "no fields changed") {
		t.Fatalf("identical layouts should report no movement: %s", same)
	}
}
