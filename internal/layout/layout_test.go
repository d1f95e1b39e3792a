package layout

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"structlayout/internal/ir"
)

func mixedStruct() *ir.StructType {
	return ir.NewStruct("M",
		ir.I8("c1"),  // 0
		ir.I64("q1"), // 1
		ir.I16("h1"), // 2
		ir.I32("w1"), // 3
		ir.I64("q2"), // 4
		ir.I8("c2"),  // 5
		ir.Ptr("p1"), // 6
		ir.I32("w2"), // 7
	)
}

func mustOriginal(t testing.TB, st *ir.StructType, lineSize int) *Layout {
	t.Helper()
	l, err := Original(st, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustSortByHotness(t testing.TB, st *ir.StructType, hot map[int]float64, lineSize int) *Layout {
	t.Helper()
	l, err := SortByHotness(st, hot, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestOriginalLayoutCRules(t *testing.T) {
	st := mixedStruct()
	l := mustOriginal(t, st, 128)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// c1 at 0, q1 aligned to 8, h1 at 16, w1 at 20, q2 at 24, c2 at 32,
	// p1 at 40, w2 at 48, size aligned to 8 -> 56.
	want := []int{0, 8, 16, 20, 24, 32, 40, 48}
	for i, w := range want {
		if l.Offsets[i] != w {
			t.Fatalf("offset[%d] = %d, want %d", i, l.Offsets[i], w)
		}
	}
	if l.Size != 56 {
		t.Fatalf("size = %d, want 56", l.Size)
	}
}

func TestFromOrderRejectsBadPermutations(t *testing.T) {
	st := mixedStruct()
	if _, err := FromOrder(st, "x", []int{0, 1}, 128); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := FromOrder(st, "x", []int{0, 0, 1, 2, 3, 4, 5, 6}, 128); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := FromOrder(st, "x", []int{0, 1, 2, 3, 4, 5, 6, 99}, 128); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := FromOrder(st, "x", []int{0, 1, 2, 3, 4, 5, 6, 7}, 0); err == nil {
		t.Fatal("zero line size accepted")
	}
}

func TestSortByHotness(t *testing.T) {
	st := mixedStruct()
	hot := map[int]float64{0: 100, 1: 1, 2: 50, 4: 90, 6: 80}
	l := mustSortByHotness(t, st, hot, 128)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8-aligned group by hotness: q2(90), p1(80), q1(1); then 4-aligned:
	// w1,w2 (both 0 -> index order); then 2: h1(50); then 1: c1(100), c2.
	want := []int{4, 6, 1, 3, 7, 2, 0, 5}
	for i, fi := range want {
		if l.Order[i] != fi {
			t.Fatalf("order[%d] = %d (%s), want %d", i, l.Order[i], st.Fields[l.Order[i]].Name, fi)
		}
	}
	// Dense packing: only the trailing alignment pad (36 -> 40) remains.
	if l.PaddingBytes() != 4 {
		t.Fatalf("padding = %d, want 4", l.PaddingBytes())
	}
}

func TestPackClustersSeparateLines(t *testing.T) {
	st := mixedStruct()
	clusters := [][]int{{1, 4}, {0, 2, 3}, {5, 6, 7}}
	l, err := PackClusters(st, "packed", clusters, 128, apart)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.LineOf(1) != 0 || l.LineOf(4) != 0 {
		t.Fatal("cluster 0 not on line 0")
	}
	if l.LineOf(0) != 1 || l.LineOf(2) != 1 || l.LineOf(3) != 1 {
		t.Fatal("cluster 1 not on line 1")
	}
	if l.LineOf(5) != 2 {
		t.Fatal("cluster 2 not on line 2")
	}
	if l.NumLines() != 3 {
		t.Fatalf("lines = %d, want 3", l.NumLines())
	}

	// The falsesharing example's spread layout: eight 8-byte counters,
	// one singleton cluster each, one counter per 128-byte line.
	ctrs := make([]ir.Field, 8)
	single := make([][]int, len(ctrs))
	for i := range ctrs {
		ctrs[i] = ir.I64(fmt.Sprintf("ctr%d", i))
		single[i] = []int{i}
	}
	spread, err := PackClusters(ir.NewStruct("counters", ctrs...), "spread", single, 128, apart)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range spread.Offsets {
		if off != 128*i {
			t.Fatalf("offsets %v, want 0, 128, ..., 896", spread.Offsets)
		}
	}
}

func TestPackClustersFirstFit(t *testing.T) {
	st := mixedStruct()
	clusters := [][]int{{1, 4}, {0, 2, 3}, {5, 6, 7}}
	l, err := PackClusters(st, "packed", clusters, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Everything fits in one 128-byte line when no separation is required.
	if l.NumLines() != 1 {
		t.Fatalf("lines = %d, want 1", l.NumLines())
	}
}

func TestPackClustersSeparationPredicate(t *testing.T) {
	st := mixedStruct()
	clusters := [][]int{{1, 4}, {0, 2, 3}, {5, 6, 7}}
	sep := func(a, b int) bool { return (a == 0 && b == 1) || (a == 1 && b == 0) }
	l, err := PackClusters(st, "packed", clusters, 128, sep)
	if err != nil {
		t.Fatal(err)
	}
	if l.SameLine(1, 0) {
		t.Fatal("separated clusters share a line")
	}
	// Cluster 2 has no separation constraint; it may share with cluster 1.
	if !l.SameLine(0, 5) {
		t.Fatal("unconstrained cluster should pack onto line with cluster 1")
	}
}

func TestPackClustersTooBig(t *testing.T) {
	st := ir.NewStruct("Big", ir.Arr("a", 20, 8, 8), ir.I64("b"))
	if _, err := PackClusters(st, "x", [][]int{{0, 1}}, 128, nil); err == nil {
		t.Fatal("oversized cluster accepted")
	}
}

func TestApplyConstraints(t *testing.T) {
	st := mixedStruct()
	orig := mustOriginal(t, st, 32) // small lines to force multi-line layout
	// Constrain q1+q2 together and p1 in a different cluster.
	clusters := [][]int{{1, 4}, {6}}
	l, err := ApplyConstraints(orig, "best", clusters)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if !l.SameLine(1, 4) {
		t.Fatal("same-cluster fields not co-located")
	}
	if l.SameLine(1, 6) || l.SameLine(4, 6) {
		t.Fatal("different clusters share a line")
	}
}

func TestApplyConstraintsPreservesUnconstrainedOrder(t *testing.T) {
	st := mixedStruct()
	orig := mustOriginal(t, st, 128)
	l, err := ApplyConstraints(orig, "best", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Equal(orig) {
		t.Fatal("no constraints should reproduce the original layout")
	}
}

func TestApplyConstraintsDuplicateField(t *testing.T) {
	st := mixedStruct()
	orig := mustOriginal(t, st, 128)
	if _, err := ApplyConstraints(orig, "x", [][]int{{1, 4}, {4}}); err == nil {
		t.Fatal("duplicate field across clusters accepted")
	}
}

func TestLinesOfSpanningField(t *testing.T) {
	st := ir.NewStruct("S", ir.I64("a"), ir.Arr("buf", 40, 8, 8), ir.I64("b"))
	l := mustOriginal(t, st, 128)
	lines := l.LinesOf(1) // 320-byte array from offset 8 spans lines 0..2
	if len(lines) != 3 || lines[0] != 0 || lines[2] != 2 {
		t.Fatalf("LinesOf = %v", lines)
	}
	if !l.SameLine(0, 1) {
		t.Fatal("a shares line 0 with buf")
	}
	if !l.SameLine(1, 2) {
		t.Fatal("buf shares line 2 with b")
	}
	if l.SameLine(0, 2) {
		t.Fatal("a and b do not share lines")
	}
}

func TestLineAlignedSize(t *testing.T) {
	st := mixedStruct()
	l := mustOriginal(t, st, 128)
	if l.LineAlignedSize() != 128 {
		t.Fatalf("LineAlignedSize = %d", l.LineAlignedSize())
	}
	l32 := mustOriginal(t, st, 32)
	if l32.LineAlignedSize() != 64 {
		t.Fatalf("LineAlignedSize(32) = %d, want 64", l32.LineAlignedSize())
	}
}

func TestDumpMentionsLines(t *testing.T) {
	st := mixedStruct()
	l := mustOriginal(t, st, 32)
	d := l.Dump()
	if !strings.Contains(d, "-- line 0 --") || !strings.Contains(d, "-- line 1 --") {
		t.Fatalf("dump missing line markers:\n%s", d)
	}
}

// Property: any permutation yields a valid, non-overlapping, aligned layout
// no smaller than the dense minimum and no larger than worst-case padding.
func TestRandomPermutationsValid(t *testing.T) {
	st := mixedStruct()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(st.Fields))
		l, err := FromOrder(st, "rand", order, 128)
		if err != nil {
			return false
		}
		if l.Validate() != nil {
			return false
		}
		return l.Size >= st.MinBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SortByHotness places within each alignment group in descending
// hotness order.
func TestSortByHotnessMonotone(t *testing.T) {
	st := mixedStruct()
	f := func(h0, h1, h2, h3, h4, h5, h6, h7 uint16) bool {
		hot := map[int]float64{
			0: float64(h0), 1: float64(h1), 2: float64(h2), 3: float64(h3),
			4: float64(h4), 5: float64(h5), 6: float64(h6), 7: float64(h7),
		}
		l, err := SortByHotness(st, hot, 128)
		if err != nil {
			return false
		}
		for i := 1; i < len(l.Order); i++ {
			a, b := l.Order[i-1], l.Order[i]
			if st.Fields[a].Align == st.Fields[b].Align && hot[a] < hot[b] {
				return false
			}
		}
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmitC(t *testing.T) {
	st := ir.NewStruct("conn",
		ir.I64("a"), ir.I32("b"), ir.I16("c"), ir.I8("d"),
		ir.Arr("buf", 3, 8, 8), ir.Pad("resv", 5),
	)
	l, err := PackClusters(st, "emit", [][]int{{0}, {1, 2, 3}, {4, 5}}, 64, apart)
	if err != nil {
		t.Fatal(err)
	}
	c := l.EmitC()
	for _, want := range []string{
		"struct conn {",
		"uint64_t        a;",
		"uint32_t        b;",
		"uint16_t        c;",
		"uint8_t         d;",
		"_Alignas(8) char buf[24];",
		"char            resv[5];",
		"/* ---- cache line 0 ---- */",
		"/* ---- cache line 1 ---- */",
		"__pad0[",
	} {
		if !strings.Contains(c, want) {
			t.Fatalf("EmitC missing %q:\n%s", want, c)
		}
	}
	// Offsets in comments match the layout.
	if !strings.Contains(c, "/* offset    0 */") {
		t.Fatalf("offset comments missing:\n%s", c)
	}
}

// apart separates every pair of clusters: one cluster per line.
func apart(int, int) bool { return true }

// TestEmitCPaddingAccountsForEverything: declared members plus pads cover
// the full struct size with no overlap (parse sizes back out of the text).
func TestEmitCPaddingAccountsForEverything(t *testing.T) {
	st := mixedStruct()
	hot := map[int]float64{0: 5, 4: 9}
	l := mustSortByHotness(t, st, hot, 32)
	c := l.EmitC()
	// Count pad bytes mentioned and field bytes; compare with Size.
	total := 0
	for _, f := range st.Fields {
		total += f.Size
	}
	for _, line := range strings.Split(c, "\n") {
		if i := strings.Index(line, "__pad"); i >= 0 {
			var idx, n int
			if _, err := fmt.Sscanf(line[i:], "__pad%d[%d]", &idx, &n); err != nil {
				t.Fatalf("unparseable pad line %q: %v", line, err)
			}
			total += n
		}
	}
	if total != l.Size {
		t.Fatalf("members+pads = %d bytes, layout size %d:\n%s", total, l.Size, c)
	}
}
