// Package diag is the analysis pipeline's shared structured-diagnostics
// type. The paper's measurement side (§4.2, §4.3) rests on PMU data that is
// imperfect in practice — ITC drift, sample loss on loaded machines,
// capped sampling frequency — so every consumer of measured input
// (sampling, concurrency, fieldmap, flg, core) records what it noticed and
// what fallback it took instead of failing. A report then shows the
// programmer whether the advisory rests on clean or degraded evidence.
//
// A Log aggregates diagnostics by (source, code, severity): repeated
// occurrences of the same condition bump a count rather than appending a
// line per sample, so a million dropped samples cost one entry.
package diag

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Info records a normal-but-noteworthy observation.
	Info Severity = iota
	// Warning marks suspicious input that did not change the analysis
	// outcome (e.g. a handful of duplicate samples, dropped).
	Warning
	// Degraded marks a defined fallback: the analysis completed, but on
	// reduced evidence (e.g. an empty concurrency map forced an
	// affinity-only layout).
	Degraded
	// Error marks input that had to be rejected outright.
	Error
)

// severityNames are the severities' text forms, indexed by value.
var severityNames = [...]string{Info: "info", Warning: "warning", Degraded: "degraded", Error: "error"}

// String renders the severity.
func (s Severity) String() string {
	if s >= 0 && int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalText renders the severity as String does, so a Severity is text
// in JSON: its name, not its number.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity's name.
func (s *Severity) UnmarshalText(text []byte) error {
	for i, name := range severityNames {
		if string(text) == name {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("diag: unknown severity %q", text)
}

// Diagnostic is one aggregated observation.
type Diagnostic struct {
	// Severity grades the observation.
	Severity Severity `json:"severity"`
	// Source is the pipeline stage that noticed ("sampling", "flg", ...).
	Source string `json:"source"`
	// Code is a stable, machine-matchable identifier of the condition
	// ("itc-nonmonotonic", "fmf-coverage", ...).
	Code string `json:"code"`
	// Message is the human-readable text of the first occurrence.
	Message string `json:"message"`
	// Count is how many times the condition occurred.
	Count int `json:"count"`
}

// String renders one diagnostic line.
func (d Diagnostic) String() string {
	if d.Count > 1 {
		return fmt.Sprintf("[%s] %s/%s: %s (x%d)", d.Severity, d.Source, d.Code, d.Message, d.Count)
	}
	return fmt.Sprintf("[%s] %s/%s: %s", d.Severity, d.Source, d.Code, d.Message)
}

type logKey struct {
	sev    Severity
	source string
	code   string
}

// Log accumulates diagnostics. The zero value is NOT usable; use NewLog.
// All methods tolerate a nil receiver (they drop the diagnostic), so deep
// pipeline stages can take an optional *Log without guarding every call.
// A Log is safe for concurrent use: analyses may run on parallel workers,
// and the aggregated (source, code, severity) keying keeps the rendered
// output independent of arrival order within a key.
type Log struct {
	mu      sync.Mutex
	entries []Diagnostic
	index   map[logKey]int
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{index: make(map[logKey]int)}
}

// Add records one occurrence of a condition.
func (l *Log) Add(sev Severity, source, code, format string, args ...interface{}) {
	l.AddN(sev, source, code, 1, format, args...)
}

// AddN records n occurrences of a condition. n <= 0 records nothing.
func (l *Log) AddN(sev Severity, source, code string, n int, format string, args ...interface{}) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := logKey{sev: sev, source: source, code: code}
	if i, ok := l.index[k]; ok {
		l.entries[i].Count += n
		return
	}
	l.index[k] = len(l.entries)
	l.entries = append(l.entries, Diagnostic{
		Severity: sev,
		Source:   source,
		Code:     code,
		Message:  fmt.Sprintf(format, args...),
		Count:    n,
	})
}

// Entries returns the aggregated diagnostics, most severe first (stable
// within a severity: insertion order).
func (l *Log) Entries() []Diagnostic {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Diagnostic(nil), l.entries...)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out
}

// Len returns the number of distinct conditions recorded.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Max returns the highest severity recorded (Info for an empty log).
func (l *Log) Max() Severity {
	max := Info
	if l == nil {
		return max
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range l.entries {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// Degraded reports whether any fallback (or worse) was recorded.
func (l *Log) Degraded() bool { return l.Max() >= Degraded }

// String renders the log one diagnostic per line, most severe first.
func (l *Log) String() string {
	if l.Len() == 0 {
		return "(no diagnostics)\n"
	}
	var sb strings.Builder
	for _, d := range l.Entries() {
		sb.WriteString("  ")
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
