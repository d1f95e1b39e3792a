package coherence

// StateOf reports the MESI state of the line holding addr in the CPU's
// cache (Invalid if absent). It changes no state, not even the LRU order.
func (s *System) StateOf(cpu int, addr int64) State {
	line := addr >> s.lineShift
	c := &s.caches[cpu]
	if c.n == nil {
		return Invalid
	}
	setIdx := line & s.setMask
	base := int(setIdx) * s.cfg.Ways
	for i := base; i < base+int(c.n[setIdx]); i++ {
		if c.lines[i] == line {
			return c.state[i]
		}
	}
	return Invalid
}
