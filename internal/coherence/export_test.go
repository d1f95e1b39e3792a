package coherence

import (
	"fmt"
	"math/bits"
)

// StateOf reports the MESI state of the line holding addr in the CPU's
// cache (Invalid if absent). It changes no state, not even the LRU order.
func (s *System) StateOf(cpu int, addr int64) State {
	line := addr >> s.lineShift
	g, set := s.group(cpu, line&s.setMask)
	if g == nil {
		return Invalid
	}
	base := set * s.cfg.Ways
	for i := base; i < base+int(g.n[set]); i++ {
		if g.lines[i] == line {
			return g.state[i]
		}
	}
	return Invalid
}

// groupsOf returns cpu's slice of the group table.
func (s *System) groupsOf(cpu int) []*cacheGroup {
	return s.caches[cpu<<s.cpuShift : (cpu+1)<<s.cpuShift]
}

// groupsHeld reports how many of cpu's cache groups are allocated.
func (s *System) groupsHeld(cpu int) int {
	n := 0
	for _, g := range s.groupsOf(cpu) {
		if g != nil {
			n++
		}
	}
	return n
}

// Misses returns the total full misses (excluding upgrades).
func (s Stats) Misses() uint64 { return s.ColdMisses + s.ReplMisses + s.CohMisses }

// Config returns the cache geometry.
func (s *System) Config() Config { return s.cfg }

// CPUStats returns one CPU's counters.
func (s *System) CPUStats(cpu int) Stats { return s.perCPU[cpu] }

// CheckInvariants verifies MESI invariants over the whole system: at most
// one owner per line, owner implies no other sharers, directory matches the
// caches. Tests call it after random access sequences.
func (s *System) CheckInvariants() error {
	// Rebuild the sharer view from the caches.
	type holder struct {
		cpu   int
		state State
	}
	holders := make(map[int64][]holder)
	for cpu := range s.perCPU {
		for gi, g := range s.groupsOf(cpu) {
			if g == nil {
				continue
			}
			for set := 0; set < min(s.cfg.Sets, groupSets); set++ {
				base := set * s.cfg.Ways
				for i := base; i < base+int(g.n[set]); i++ {
					if want := int64(gi*groupSets + set); g.lines[i]&s.setMask != want {
						return fmt.Errorf("cpu %d holds line %d in set %d", cpu, g.lines[i], want)
					}
					holders[g.lines[i]] = append(holders[g.lines[i]], holder{cpu, g.state[i]})
				}
			}
		}
	}
	for line, hs := range holders {
		li := s.lookup(line)
		if li == nil {
			return fmt.Errorf("line %d cached but has no directory entry", line)
		}
		exclusive := 0
		for _, h := range hs {
			if h.state == Modified || h.state == Exclusive {
				exclusive++
				if int(li.owner) != h.cpu {
					return fmt.Errorf("line %d: cpu %d holds %s but directory owner is %d", line, h.cpu, h.state, li.owner)
				}
			}
			if !li.sharers.get(h.cpu) {
				return fmt.Errorf("line %d: cpu %d holds copy but is not in sharer set", line, h.cpu)
			}
		}
		if exclusive > 1 {
			return fmt.Errorf("line %d has %d exclusive holders", line, exclusive)
		}
		if exclusive == 1 && len(hs) > 1 {
			return fmt.Errorf("line %d owned exclusively but has %d holders", line, len(hs))
		}
		if n := li.sharers.count(); n != len(hs) {
			return fmt.Errorf("line %d: directory says %d sharers, caches hold %d", line, n, len(hs))
		}
	}
	// No directory entry may claim sharers that hold nothing.
	var stale error
	s.forEachLine(func(line int64, li *lineInfo) {
		if stale == nil && li.sharers.count() != len(holders[line]) {
			stale = fmt.Errorf("line %d: stale sharers in directory", line)
		}
	})
	return stale
}

// forEachLine visits every directory entry (flat and map-backed).
func (s *System) forEachLine(fn func(line int64, li *lineInfo)) {
	for line, li := range s.flat {
		if li != nil {
			fn(int64(line), li)
		}
	}
	for line, li := range s.lines {
		fn(line, li)
	}
}

// lookup returns the directory entry for line, or nil.
func (s *System) lookup(line int64) *lineInfo {
	if uint64(line) < uint64(s.flatLines) {
		return s.flat[line]
	}
	return s.lines[line]
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
