package irtext

import (
	"testing"

	"structlayout/internal/ir"
)

// FuzzParse checks that arbitrary input never panics the parser, and that
// anything it accepts survives a format/reparse round trip. `go test` runs
// the seed corpus; `go test -fuzz=FuzzParse ./internal/irtext` explores.
func FuzzParse(f *testing.F) {
	f.Add(demo)
	f.Add("program p\nproc f { compute 1 }\n")
	f.Add("program p struct S { a i64 } proc f { read S.a shared 0 }")
	f.Add("program p proc f { if 0.5 { compute 1 } else { compute 2 } }")
	f.Add("program p proc f { loop 3 { compute 1 } } thread 0 f iters 2")
	f.Add("program p # comment only")
	f.Add("}{..")
	f.Add("program p region r 64 shared proc f { memrand r write }")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		text := Format(file)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted output rejected: %v\ninput: %q\nformatted:\n%s", err, src, text)
		}
		if again.Prog.Dump() != file.Prog.Dump() || ir.Canonical(again.Prog) != ir.Canonical(file.Prog) {
			t.Fatalf("round trip changed program for input %q", src)
		}
	})
}
