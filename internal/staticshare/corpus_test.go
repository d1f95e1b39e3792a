package staticshare_test

import (
	"os"
	"reflect"
	"testing"

	"structlayout/internal/gofront"
	"structlayout/internal/staticshare"
)

// TestCorpusSummaryEqualsExact extends the differential gate through the
// Go frontend: every corpus and example package is loaded and lowered by
// gofront, then linted by the summary path and by the exact oracle. The
// findings JSON and the reordering suggestions derived from each
// classification must be byte-identical.
func TestCorpusSummaryEqualsExact(t *testing.T) {
	if _, err := os.Stat("../../examples/corpus"); err != nil {
		t.Skip("examples/corpus not present")
	}
	const lineSize = 128
	opts := gofront.Options{LineSize: lineSize}
	pkgs, loadErrs, err := gofront.Load([]string{"../../examples/corpus/...", "../../examples/gofront/..."}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, lerr := range loadErrs {
		t.Errorf("load: %v", lerr)
	}
	if len(pkgs) != 17 {
		t.Fatalf("loaded %d packages, want the 15 corpus + 2 gofront examples", len(pkgs))
	}
	for _, pkg := range pkgs {
		model, err := gofront.Extract(pkg, opts)
		if err != nil {
			t.Fatalf("%s: extract: %v", pkg.Dir, err)
		}
		sumF, sumRes, err := staticshare.LintFile(model.File, lineSize)
		if err != nil {
			t.Fatalf("%s: summary lint: %v", pkg.Dir, err)
		}
		exactF, exactRes, err := staticshare.LintFileExact(model.File, lineSize)
		if err != nil {
			t.Fatalf("%s: exact lint: %v", pkg.Dir, err)
		}
		sj, err := staticshare.MarshalFindings(sumF)
		if err != nil {
			t.Fatal(err)
		}
		ej, err := staticshare.MarshalFindings(exactF)
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(ej) {
			t.Errorf("%s: findings differ\nsummary: %s\nexact:   %s", pkg.Dir, sj, ej)
		}
		sumS := gofront.Suggest(model, sumRes, lineSize)
		exactS := gofront.Suggest(model, exactRes, lineSize)
		if !reflect.DeepEqual(sumS, exactS) {
			t.Errorf("%s: suggestions differ\nsummary: %+v\nexact:   %+v", pkg.Dir, sumS, exactS)
		}
	}
}
