// Package irtexttest is the one source of programs for tests that run
// many programs, as net/http/httptest is for HTTP tests: the committed
// .slp files (Committed) and a random-program generator with one
// shrinker (Engine, ForkJoin, Shrink). Only _test.go files import it.
package irtexttest

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"structlayout/internal/irtext"
)

// Slp is one committed .slp program.
type Slp struct {
	Path string // slash-separated, from the module root
	Src  string
	File *irtext.File // Src parsed
}

// Committed returns every *.slp file under the module root outside dot
// directories, parsed afresh and in path order. It fails tb when there is
// no module root or no program, or a program does not parse.
func Committed(tb testing.TB) []Slp {
	tb.Helper()
	root, err := os.Getwd()
	for ; err == nil; root = filepath.Dir(root) {
		if _, serr := os.Stat(filepath.Join(root, "go.mod")); serr == nil {
			break
		}
		if filepath.Dir(root) == root {
			err = fmt.Errorf("irtexttest: no go.mod above the working directory")
		}
	}
	var out []Slp
	if err == nil {
		err = fs.WalkDir(os.DirFS(root), ".", func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && p != "." && strings.HasPrefix(d.Name(), "."):
				return fs.SkipDir
			case d.IsDir() || path.Ext(p) != ".slp":
				return nil
			}
			src, err := os.ReadFile(filepath.Join(root, p))
			if err != nil {
				return err
			}
			f, err := irtext.Parse(string(src))
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, Slp{Path: p, Src: string(src), File: f})
			return nil
		})
	}
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("irtexttest: no .slp program under %s", root)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return out
}
