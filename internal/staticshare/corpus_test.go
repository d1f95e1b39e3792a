package staticshare_test

import (
	"os"
	"reflect"
	"testing"

	"structlayout/internal/gofront"
	"structlayout/internal/staticshare"
)

// TestCorpusVerdictMemoEqualsOracle extends the differential gate
// through the Go frontend: every corpus and example package is loaded
// and lowered by gofront, then linted by the memoized walk and by the
// oracle. The findings JSON and the reordering suggestions derived from
// each classification must be byte-identical.
func TestCorpusVerdictMemoEqualsOracle(t *testing.T) {
	if _, err := os.Stat("../../examples/corpus"); err != nil {
		t.Skip("examples/corpus not present")
	}
	const lineSize = 128
	opts := gofront.Options{}
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
		memoF, memoRes, err := staticshare.LintFile(model.File, lineSize)
		if err != nil {
			t.Fatalf("%s: lint: %v", pkg.Dir, err)
		}
		exactF, exactRes, err := staticshare.LintFileExact(model.File, lineSize)
		if err != nil {
			t.Fatalf("%s: oracle lint: %v", pkg.Dir, err)
		}
		mj, err := staticshare.MarshalFindings(memoF)
		if err != nil {
			t.Fatal(err)
		}
		ej, err := staticshare.MarshalFindings(exactF)
		if err != nil {
			t.Fatal(err)
		}
		if string(mj) != string(ej) {
			t.Errorf("%s: findings differ\nmemo:   %s\noracle: %s", pkg.Dir, mj, ej)
		}
		memoS := gofront.Suggest(model, memoRes, lineSize)
		exactS := gofront.Suggest(model, exactRes, lineSize)
		if !reflect.DeepEqual(memoS, exactS) {
			t.Errorf("%s: suggestions differ\nmemo:   %+v\noracle: %+v", pkg.Dir, memoS, exactS)
		}
	}
}
