package main

import (
	"strings"
	"testing"

	"structlayout/internal/machine"
)

func TestRunBaseline(t *testing.T) {
	if err := run("bus4", "", "baseline", 2, 3, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithHotnessLayout(t *testing.T) {
	if err := run("bus4", "A", "hotness", 2, 3, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("vax", "", "baseline", 1, 1, false); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if err := run("bus4", "Z", "baseline", 1, 1, false); err == nil {
		t.Fatal("unknown struct accepted")
	}
	if err := run("bus4", "A", "mystery", 1, 1, false); err == nil {
		t.Fatal("unknown layout accepted")
	}
}

// TestUsageErrors: an unknown machine or struct, -layout without -struct,
// and a layout name buildLayout does not know are usage errors naming
// the flag (the CLI exits 2 before any simulation), not a run error or a
// silent all-baseline run.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		machine, structLabel, layout string
		layoutSet                    bool
		want                         string
	}{
		{"vax", "", "baseline", false, `machine: unknown machine "vax" (want ` + strings.Join(machine.Names(), ", ") + ")"},
		{"vax", "Z", "baseline", false, `machine: unknown machine "vax" (want ` + strings.Join(machine.Names(), ", ") + ")"},
		{"bus4", "Z", "baseline", false, `-struct "Z": want one of A, B, C, D, E`},
		{"bus4", "a", "hotness", true, `-struct "a": want one of A, B, C, D, E`},
		{"superdome128", "", "hotness", true, "-layout needs -struct (without it every struct keeps its baseline layout)"},
		{"superdome128", "", "baseline", true, "-layout needs -struct (without it every struct keeps its baseline layout)"},
		{"superdome128", "", "mystery", true, "-layout needs -struct (without it every struct keeps its baseline layout)"},
		{"superdome128", "A", "mystery", true, `-layout "mystery": want baseline or hotness (use cmd/experiments for auto/best)`},
		{"superdome128", "A", "auto", true, `-layout "auto": want baseline or hotness (use cmd/experiments for auto/best)`},
		{"superdome128", "", "baseline", false, ""},
		{"superdome128", "A", "baseline", false, ""},
		{"superdome128", "A", "hotness", true, ""},
	}
	for _, c := range cases {
		if got := usageError(c.machine, c.structLabel, c.layout, c.layoutSet); got != c.want {
			t.Errorf("usageError(%q, %q, %q, %t) = %q, want %q", c.machine, c.structLabel, c.layout, c.layoutSet, got, c.want)
		}
	}
}
