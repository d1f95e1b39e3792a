package irtext

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const demo = `
# A comment at the top.
program demo

struct conn {
    c_state  i64
    c_events i64
    c_rx     i64
    c_flags  i32
    c_tag    i16
    c_byte   i8
    c_ptr    ptr
    c_pad    pad 3
    c_name   arr 4 8 align 8
}

region userbuf 262144 perthread
region table 1048576 shared

proc poller {
    loop 256 {
        read conn.c_state loopvar
        read conn.c_events loopvar
        compute 25
    }
}

proc worker {
    loop 128 {
        write conn.c_rx shared 0
        if 0.25 {
            memsweep userbuf write 1024
        } else {
            memat table read 64
            memrand table write
        }
        compute 60
    }
    lock conn.c_state param 0     # a lock field for syntax coverage
    write conn.c_flags param 0
    unlock conn.c_state param 0
    read conn.c_tag percpu
}

proc main0 {
    call poller
    call worker
}

arena conn 512
thread 0 main0 params 1 2 iters 4
thread 1 main0 params 3 4 iters 4
`

func TestParseDemo(t *testing.T) {
	f, err := Parse(demo)
	if err != nil {
		t.Fatal(err)
	}
	if f.Prog.Name != "demo" {
		t.Fatalf("program name %q", f.Prog.Name)
	}
	st := f.Prog.Struct("conn")
	if st == nil || st.NumFields() != 9 {
		t.Fatalf("struct conn wrong: %+v", st)
	}
	if st.Fields[8].Size != 32 || st.Fields[8].Align != 8 {
		t.Fatalf("array field wrong: %+v", st.Fields[8])
	}
	if f.Prog.Region("userbuf") == nil || !f.Prog.Region("userbuf").PerThread {
		t.Fatal("userbuf region wrong")
	}
	if f.Prog.Region("table") == nil || f.Prog.Region("table").PerThread {
		t.Fatal("table region wrong")
	}
	for _, proc := range []string{"poller", "worker", "main0"} {
		if f.Prog.Proc(proc) == nil {
			t.Fatalf("missing proc %s", proc)
		}
	}
	if f.Arenas["conn"] != 512 {
		t.Fatalf("arena = %d", f.Arenas["conn"])
	}
	if len(f.Threads) != 2 || f.Threads[1].CPU != 1 || f.Threads[1].Iters != 4 {
		t.Fatalf("threads = %+v", f.Threads)
	}
	if len(f.Threads[0].Params) != 2 || f.Threads[0].Params[1] != 2 {
		t.Fatalf("thread params = %+v", f.Threads[0].Params)
	}
	// Loops were recognized.
	if len(f.Prog.Proc("poller").Loops) != 1 || len(f.Prog.Proc("worker").Loops) != 1 {
		t.Fatal("loop recognition failed")
	}
}

// TestRoundTrip: the demo and every committed .slp file survive a
// format/reparse round trip with their ASTs intact, and formatting the
// reparse gives the same text.
func TestRoundTrip(t *testing.T) {
	srcs := map[string]string{"demo": demo}
	for _, root := range []string{"../../examples", "../../internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !strings.HasSuffix(path, ".slp") {
				return err
			}
			src, err := os.ReadFile(path)
			srcs[path] = string(src)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(srcs) < 14 {
		t.Fatalf("found %d programs, want the demo and the 13 committed .slp files", len(srcs))
	}
	for name, src := range srcs {
		f1, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := Format(f1)
		f2, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", name, err, text)
		}
		if d := diffFiles(f1, f2); d != "" {
			t.Fatalf("%s: round trip changed the file: %s\n%s", name, d, text)
		}
		if Format(f2) != text {
			t.Fatalf("%s: Format not idempotent", name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no program", `struct S { a i64 }`, `expected "program"`},
		{"bad toplevel", `program p  frob x`, "unexpected top-level keyword"},
		{"empty struct", `program p  struct S { }`, "no fields"},
		{"bad field type", `program p  struct S { a i63 }`, "unknown field type"},
		{"dup struct", `program p  struct S { a i64 }  struct S { b i64 }`, "duplicate struct"},
		{"bad region scope", `program p  region r 64 private`, "shared or perthread"},
		{"unknown struct in proc", `program p  proc f { read T.x shared 0 }`, `unknown struct "T"`},
		{"unknown field in proc", `program p  struct S { a i64 }  proc f { read S.b shared 0 }`, `no field "b"`},
		{"bad stmt", `program p  proc f { jump 3 }`, "unknown statement"},
		{"bad inst", `program p  struct S { a i64 }  proc f { read S.a global 0 }`, "unknown instance selector"},
		{"bad prob", `program p  proc f { if 1.5 { compute 1 } }`, "out of [0,1]"},
		{"unterminated", `program p  proc f { compute 1`, "unexpected end of file"},
		{"bad region in mem", `program p  proc f { memrand nowhere read }`, `unknown region "nowhere"`},
		{"empty loop", `program p  proc f { loop 4 { } }`, "empty loop body"},
		{"undefined callee", `program p  proc f { call g }`, "undefined procedure"},
		{"arena unknown struct", `program p  arena T 4`, "undefined struct"},
		{"arena nonpositive", `program p  struct S { a i64 }  arena S 0`, "positive count"},
		{"dup arena", `program p  struct S { a i64 }  arena S 1 arena S 2`, "duplicate arena"},
		{"thread unknown proc", `program p  thread 0 ghost iters 1`, "undefined proc"},
		{"thread bad iters", `program p  proc f { compute 1 }  thread 0 f iters 0`, "must be positive"},
		{"stray char", `program p  proc f { compute 1 } @`, "unexpected character"},
		{"recursion", `program p  proc f { call f }`, "recursive"},
		{"negative param instance", `program p  struct S { a i64 }  proc f { read S.a param -1 }`, "negative instance param[-1]"},
		{"negative shared lock", `program p  struct S { l i64 }  proc f { lock S.l shared -1 unlock S.l shared -1 }`, "negative instance shared[-1]"},
		{"negative memat offset", `program p  region r1 256 shared  region r2 256 shared  proc f { memat r2 write -200 }`, "f accesses region r2 at negative offset -200"},
		{"zero memsweep stride", `program A region userbuf 4096 shared proc f { memsweep userbuf write 0 }`, "f sweeps region userbuf with non-positive stride 0"},
		{"negative memsweep stride", `program p  region r 256 perthread  proc f { memsweep r read -8 }`, "f sweeps region r with non-positive stride -8"},
		{"negative thread param", `program p  proc f { compute 1 }  thread 0 f params 2 -3 iters 1`, "must be non-negative"},
		{"spawn in loop", `program p  proc w { compute 1 }  proc f { loop 2 { spawn h 1 w } }`, "nested inside a loop"},
		{"join in branch", `program p  proc w { compute 1 }  proc f { spawn h 1 w  if 0.5 { join h } }`, "nested inside a branch"},
		{"join without spawn", `program p  proc f { join h }`, `join "h" does not follow a spawn`},
		{"joined twice", `program p  proc w { compute 1 }  proc f { spawn h 1 w  join h  join h }`, `handle "h" joined twice`},
		{"call to task entry", `program p  proc w { compute 1 }  proc t { spawn h 1 w  join h }  proc f { call t }`, "task entries must not be called"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	src := "program p\nstruct S {\n    a i63\n}\n"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Fatalf("error %q lacks line info", err)
	}
}

func TestNumbersWithExponents(t *testing.T) {
	src := `program p  proc f { if 2.5e-1 { compute 1 } }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Prog.Proc("f") == nil {
		t.Fatal("proc missing")
	}
}

func TestElseBranchLowering(t *testing.T) {
	src := `program p
proc f {
    if 0.5 {
        compute 1
    } else {
        compute 2
        compute 3
    }
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Prog.Proc("f").Dump()
	if !strings.Contains(d, "compute 2") || !strings.Contains(d, "compute 3") {
		t.Fatalf("else arm lost:\n%s", d)
	}
}
