package diag

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestAggregation(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Add(Warning, "sampling", "dup", "duplicate sample dropped")
	}
	l.AddN(Warning, "sampling", "dup", 10, "duplicate sample dropped")
	l.Add(Degraded, "core", "no-concurrency", "falling back to affinity-only layout")
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2 aggregated entries", l.Len())
	}
	var dup Diagnostic
	for _, d := range l.Entries() {
		if d.Code == "dup" {
			dup = d
		}
	}
	if dup.Count != 15 {
		t.Fatalf("dup count = %d, want 15", dup.Count)
	}
	if !l.Degraded() {
		t.Fatal("log with Degraded entry not reported degraded")
	}
	if l.Max() != Degraded {
		t.Fatalf("Max = %v, want Degraded", l.Max())
	}
	if l.CountAt(Warning) != 15 {
		t.Fatalf("CountAt(Warning) = %d, want 15", l.CountAt(Warning))
	}
}

func TestEntriesOrderedBySeverity(t *testing.T) {
	l := NewLog()
	l.Add(Info, "a", "i", "info")
	l.Add(Error, "b", "e", "error")
	l.Add(Warning, "c", "w", "warn")
	es := l.Entries()
	for i := 1; i < len(es); i++ {
		if es[i].Severity > es[i-1].Severity {
			t.Fatalf("entries not ordered most-severe-first: %v", es)
		}
	}
	if es[0].Code != "e" {
		t.Fatalf("first entry %v, want the error", es[0])
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Add(Error, "x", "y", "must not crash")
	l.AddN(Warning, "x", "y", 3, "must not crash")
	if l.Len() != 0 || l.Degraded() || l.Max() != Info || l.Entries() != nil {
		t.Fatal("nil log should behave as empty")
	}
}

func TestString(t *testing.T) {
	l := NewLog()
	if !strings.Contains(l.String(), "no diagnostics") {
		t.Fatal("empty log render")
	}
	l.AddN(Degraded, "core", "no-concurrency", 1, "affinity-only fallback")
	s := l.String()
	if !strings.Contains(s, "degraded") || !strings.Contains(s, "core/no-concurrency") {
		t.Fatalf("render missing fields: %q", s)
	}
	l.AddN(Warning, "sampling", "dup", 7, "dropped")
	if !strings.Contains(l.String(), "(x7)") {
		t.Fatalf("render missing count: %q", l.String())
	}
}

func TestSeverityString(t *testing.T) {
	for sev, want := range map[Severity]string{Info: "info", Warning: "warning", Degraded: "degraded", Error: "error", Severity(42): "severity(42)"} {
		if sev.String() != want {
			t.Fatalf("Severity(%d).String() = %q, want %q", int(sev), sev.String(), want)
		}
	}
}

// TestSeverityText: each severity marshals to its name inside JSON and
// parses back; an unknown name is an error.
func TestSeverityText(t *testing.T) {
	for _, sev := range []Severity{Info, Warning, Degraded, Error} {
		raw, err := json.Marshal(Diagnostic{Severity: sev})
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"severity":"` + sev.String() + `",`; !strings.HasPrefix(string(raw), want) {
			t.Errorf("%v marshals to %s, want the prefix %s", sev, raw, want)
		}
		var back Diagnostic
		if err := json.Unmarshal(raw, &back); err != nil || back.Severity != sev {
			t.Errorf("%s unmarshals to %v, %v", raw, back.Severity, err)
		}
	}
	var sev Severity
	if err := sev.UnmarshalText([]byte("severity(42)")); err == nil {
		t.Error("an unknown severity name parsed")
	}
}
