package main

import "testing"

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

// TestUsageErrors: -layout without -struct, and a layout name buildLayout
// does not know, are usage errors naming the flag (the CLI exits 2 before
// any simulation), not a silent all-baseline run.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		structLabel, layout string
		layoutSet           bool
		want                string
	}{
		{"", "hotness", true, "-layout needs -struct (without it every struct keeps its baseline layout)"},
		{"", "baseline", true, "-layout needs -struct (without it every struct keeps its baseline layout)"},
		{"", "mystery", true, "-layout needs -struct (without it every struct keeps its baseline layout)"},
		{"A", "mystery", true, `-layout "mystery": want baseline or hotness (use cmd/experiments for auto/best)`},
		{"A", "auto", true, `-layout "auto": want baseline or hotness (use cmd/experiments for auto/best)`},
		{"", "baseline", false, ""},
		{"A", "baseline", false, ""},
		{"A", "hotness", true, ""},
	}
	for _, c := range cases {
		if got := usageError(c.structLabel, c.layout, c.layoutSet); got != c.want {
			t.Errorf("usageError(%q, %q, %t) = %q, want %q", c.structLabel, c.layout, c.layoutSet, got, c.want)
		}
	}
}
