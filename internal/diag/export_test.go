package diag

// CountAt sums occurrence counts at exactly the given severity.
func (l *Log) CountAt(sev Severity) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, d := range l.entries {
		if d.Severity == sev {
			n += d.Count
		}
	}
	return n
}
