// Package coherence implements a MESI cache-coherence simulator with
// per-CPU private caches, a directory, and a coherence granularity of one
// cache line (the paper's Itanium systems keep coherence at the 128-byte L2
// line, §1). It supplies the mechanism whose cost the layout tool tries to
// minimize: a write to a line invalidates every other cached copy, and the
// subsequent misses pay the machine topology's cache-to-cache latencies —
// more than 1000 cycles across crossbars on a big Superdome, roughly an L2
// miss on a small bus box.
//
// The simulator also classifies misses (cold / replacement / coherence) and
// flags coherence events whose invalidating write did not overlap the bytes
// the victim accesses — i.e. ground-truth false sharing. The layout tool
// never sees these flags (it must infer false sharing from CodeConcurrency,
// like the paper's tool); they exist for evaluation and tests.
package coherence

import (
	"fmt"
	"math/bits"
	"sort"

	"structlayout/internal/machine"
)

// State is a MESI line state.
type State uint8

// MESI states. Invalid lines are simply absent from the cache.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter state name.
func (s State) String() string { return [...]string{"I", "S", "E", "M"}[s] }

// MissKind classifies why an access was not a plain hit.
type MissKind uint8

const (
	// MissNone: the access hit.
	MissNone MissKind = iota
	// MissCold: this CPU never held the line.
	MissCold
	// MissReplacement: the line was evicted for capacity earlier.
	MissReplacement
	// MissCoherence: the line was invalidated by another CPU's write.
	MissCoherence
	// MissUpgrade: the line was present Shared but the access was a write,
	// requiring invalidation of the other copies.
	MissUpgrade
)

// String names the miss kind.
func (m MissKind) String() string {
	return [...]string{"none", "cold", "replacement", "coherence", "upgrade"}[m]
}

// Config sets the cache geometry. The default mirrors the paper's Itanium 2
// parts: 128-byte coherence lines and a 6 MB private cache.
type Config struct {
	LineSize int64
	Sets     int
	Ways     int
}

// DefaultItanium returns the 6 MB, 12-way, 128 B/line configuration.
func DefaultItanium() Config {
	return Config{LineSize: 128, Sets: 4096, Ways: 12}
}

// SmallCache returns a deliberately tiny cache for tests that need to
// provoke capacity evictions quickly.
func SmallCache() Config {
	return Config{LineSize: 128, Sets: 8, Ways: 2}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("coherence: line size %d not a positive power of two", c.LineSize)
	}
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("coherence: set count %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("coherence: non-positive associativity %d", c.Ways)
	}
	return nil
}

// AccessResult reports one access's outcome.
type AccessResult struct {
	// Latency in cycles, per the machine's latency model.
	Latency int64
	// Miss is MissNone for hits.
	Miss MissKind
	// FalseSharing marks a coherence miss or upgrade whose triggering
	// remote write did not overlap the bytes of this access.
	FalseSharing bool
	// WriterAddr/WriterLen describe the invalidating write when
	// FalseSharing is set, so callers can attribute the event to the
	// *causing* field as well as the victim (what perf c2c's HITM report
	// does).
	WriterAddr int64
	WriterLen  int32
	// Invalidations is the number of remote copies invalidated.
	Invalidations int
}

// Stats aggregates counters, globally and per CPU.
type Stats struct {
	Accesses      uint64
	Hits          uint64
	ColdMisses    uint64
	ReplMisses    uint64
	CohMisses     uint64
	Upgrades      uint64
	FalseSharing  uint64 // coherence events classified as false sharing
	TrueSharing   uint64 // coherence events with overlapping bytes
	Invalidations uint64 // copies invalidated by this CPU's writes
	Writebacks    uint64
	MemFetches    uint64
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.ColdMisses += o.ColdMisses
	s.ReplMisses += o.ReplMisses
	s.CohMisses += o.CohMisses
	s.Upgrades += o.Upgrades
	s.FalseSharing += o.FalseSharing
	s.TrueSharing += o.TrueSharing
	s.Invalidations += o.Invalidations
	s.Writebacks += o.Writebacks
	s.MemFetches += o.MemFetches
}

// lineInfo is the directory entry plus sharing history for one line.
type lineInfo struct {
	line    int64
	sharers bitset // CPUs currently holding the line
	owner   int32  // CPU holding it E/M, -1 otherwise

	everCached  bitset // CPUs that ever held the line (cold classification)
	invalidated bitset // CPUs whose copy was invalidated (vs evicted)

	lastWriter   int32 // CPU of the most recent invalidating write
	lastWriteLo  int32 // byte range of that write within the line
	lastWriteHi  int32
	hasLastWrite bool
}

// way is one cache slot. The line tag is kept inline so the per-access set
// scan compares integers in the slot array instead of chasing the lineInfo
// pointer per way.
// cpuCache is one CPU's private cache: Sets × Ways with LRU order per set
// (most recently used last), stored struct-of-arrays. Set setIdx occupies
// [setIdx*Ways, setIdx*Ways+n[setIdx]) in each array. Keeping the tags in
// their own contiguous array means the hit path's MRU probe and tag scan
// touch one or two host cache lines per set, instead of chasing a slice
// header to a separately allocated entry array. The arrays are allocated
// on the CPU's first access, so idle CPUs of a wide topology cost nothing;
// after that the steady state never allocates — evictions shift in place.
type cpuCache struct {
	lines []int64 // tags
	info  []*lineInfo
	state []State
	n     []int16 // per-set occupancy
}

func (c *cpuCache) init(cfg Config) {
	c.lines = make([]int64, cfg.Sets*cfg.Ways)
	c.info = make([]*lineInfo, len(c.lines))
	c.state = make([]State, len(c.lines))
	c.n = make([]int16, cfg.Sets)
}

// toMRU rotates way i of a set to the set's MRU way mru, shifting the ways
// above i down by one.
func (c *cpuCache) toMRU(i, mru int) {
	line, li, st := c.lines[i], c.info[i], c.state[i]
	copy(c.lines[i:mru], c.lines[i+1:mru+1])
	copy(c.info[i:mru], c.info[i+1:mru+1])
	copy(c.state[i:mru], c.state[i+1:mru+1])
	c.lines[mru], c.info[mru], c.state[mru] = line, li, st
}

// slabSize is how many lineInfo entries (and their three bitsets) one
// directory slab allocation holds.
const slabSize = 256

// System is a full multiprocessor coherence domain. The execution engine
// drives it under a virtual clock, which keeps simulations deterministic.
// It is not safe for concurrent use.
type System struct {
	topo   *machine.Topology
	cfg    Config
	caches []cpuCache

	// Directory. Lines below flatLines resolve through the flat slice —
	// one load instead of a map probe on the miss path; everything else
	// (out-of-arena addresses, tests with sparse address spaces) falls
	// back to the lines map. ReserveDirectory sizes the flat region.
	flat      []*lineInfo
	flatLines int64
	lines     map[int64]*lineInfo

	// lineInfo slab pool: entries and their bitset backing are carved from
	// chunked allocations instead of three small allocs per new line.
	slab     []lineInfo
	slabBits []uint64
	slabPos  int

	lineShift uint
	setMask   int64
	words     int // bitset words per CPU set

	// perCPU holds every counter; the global view is their sum, so each
	// access costs one increment.
	perCPU []Stats

	// near[cpu] partitions the other CPUs into equal-transfer-latency
	// classes, ascending by latency, each class one bitset's worth of mask
	// words. Scanning classes in order and taking the lowest set bit of
	// (class ∧ sharers) yields the same CPU as bitset.nearest — the
	// lowest-indexed minimum-latency sharer — in a handful of word ops
	// instead of a per-sharer walk (on a 128-way box a widely shared line
	// made every miss scan up to 128 sharers).
	near [][]latClass
}

// latClass is one equal-latency group of CPUs relative to some home CPU.
type latClass struct {
	mask []uint64
}

// NewSystem builds a coherence domain over the topology.
func NewSystem(topo *machine.Topology, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := topo.NumCPUs()
	s := &System{
		topo:   topo,
		cfg:    cfg,
		caches: make([]cpuCache, n),
		lines:  make(map[int64]*lineInfo),
		perCPU: make([]Stats, n),
		words:  (n + 63) / 64,
	}
	for i := int64(1); i < cfg.LineSize; i <<= 1 {
		s.lineShift++
	}
	s.setMask = int64(cfg.Sets - 1)
	s.buildNearTable(n)
	return s, nil
}

// buildNearTable precomputes the per-CPU latency classes used by
// nearestSharer.
func (s *System) buildNearTable(n int) {
	s.near = make([][]latClass, n)
	for cpu := 0; cpu < n; cpu++ {
		byLat := make(map[int64]bitset)
		lats := make([]int64, 0, 4)
		for other := 0; other < n; other++ {
			if other == cpu {
				continue
			}
			lat := s.topo.TransferLatency(other, cpu)
			m, ok := byLat[lat]
			if !ok {
				m = newBitset(s.words)
				byLat[lat] = m
				lats = append(lats, lat)
			}
			m.set(other)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		classes := make([]latClass, len(lats))
		for i, lat := range lats {
			classes[i] = latClass{mask: byLat[lat]}
		}
		s.near[cpu] = classes
	}
}

// nearestSharer returns the lowest-indexed minimum-latency member of sh
// other than cpu, or -1 — the same answer as the per-sharer walk
// bitset.nearest in bitset_test.go, via the precomputed class masks.
func (s *System) nearestSharer(cpu int, sh bitset) int {
	for ci := range s.near[cpu] {
		mask := s.near[cpu][ci].mask
		for w, m := range mask {
			if v := uint64(sh[w]) & m; v != 0 {
				return w<<6 + bits.TrailingZeros64(v)
			}
		}
	}
	return -1
}

// ReserveDirectory pre-sizes the flat directory to cover addresses in
// [0, maxAddr]. The execution engine calls it with the top of its bump
// allocator so every arena- and region-backed line takes the flat path;
// addresses beyond the reservation still work through the map fallback.
// Existing entries are preserved.
func (s *System) ReserveDirectory(maxAddr int64) {
	if maxAddr < 0 {
		return
	}
	n := maxAddr>>s.lineShift + 1
	if n <= s.flatLines {
		return
	}
	flat := make([]*lineInfo, n)
	copy(flat, s.flat)
	// Migrate map entries that the grown flat region now covers.
	for line, li := range s.lines {
		if line >= 0 && line < n {
			flat[line] = li
			delete(s.lines, line)
		}
	}
	s.flat, s.flatLines = flat, n
}

// alloc carves one lineInfo (and its bitset backing) from the slab pool.
func (s *System) alloc(line int64) *lineInfo {
	if s.slabPos == len(s.slab) {
		s.slab = make([]lineInfo, slabSize)
		s.slabBits = make([]uint64, slabSize*3*s.words)
		s.slabPos = 0
	}
	li := &s.slab[s.slabPos]
	w := s.words
	base := s.slabPos * 3 * w
	s.slabPos++
	li.line = line
	li.sharers = bitset(s.slabBits[base : base+w])
	li.everCached = bitset(s.slabBits[base+w : base+2*w])
	li.invalidated = bitset(s.slabBits[base+2*w : base+3*w])
	li.owner = -1
	li.lastWriter = -1
	return li
}

// getOrCreate returns the directory entry for line, allocating it on first
// touch.
func (s *System) getOrCreate(line int64) *lineInfo {
	if uint64(line) < uint64(s.flatLines) {
		if li := s.flat[line]; li != nil {
			return li
		}
		li := s.alloc(line)
		s.flat[line] = li
		return li
	}
	if li := s.lines[line]; li != nil {
		return li
	}
	li := s.alloc(line)
	s.lines[line] = li
	return li
}

// GlobalStats returns aggregate counters: the sum of every CPU's. Each
// increment lands on exactly one CPU's counters, so the sum equals what a
// single global tally would have counted.
func (s *System) GlobalStats() Stats {
	var g Stats
	for i := range s.perCPU {
		g.Add(s.perCPU[i])
	}
	return g
}

// Access performs one read or write of size bytes at addr by cpu and
// returns its outcome. Accesses that straddle a line boundary are split and
// their latencies summed.
func (s *System) Access(cpu int, addr int64, size int, write bool) (res AccessResult) {
	s.access(cpu, addr, size, write, &res)
	return
}

// AccessInto is Access writing its outcome into *res instead of returning
// it, sparing the by-value result copy on the execution engine's hottest
// call edge. *res is fully overwritten.
func (s *System) AccessInto(cpu int, addr int64, size int, write bool, res *AccessResult) {
	*res = AccessResult{}
	s.access(cpu, addr, size, write, res)
}

// access fills res (which must be zeroed by the caller) with the outcome.
// The out-parameter style keeps the hot accessLine call from copying a
// multi-word AccessResult up through three stack frames per access.
func (s *System) access(cpu int, addr int64, size int, write bool, res *AccessResult) {
	if size <= 0 {
		panic(fmt.Sprintf("coherence: non-positive access size %d", size))
	}
	line := addr >> s.lineShift
	endLine := (addr + int64(size) - 1) >> s.lineShift
	s.accessLine(cpu, line, int32(addr-line<<s.lineShift), int32(min64(addr+int64(size), (line+1)<<s.lineShift)-(line<<s.lineShift)), write, res)
	for l := line + 1; l <= endLine; l++ {
		hi := int32(s.cfg.LineSize)
		if l == endLine {
			hi = int32(addr + int64(size) - l<<s.lineShift)
		}
		var r2 AccessResult
		s.accessLine(cpu, l, 0, hi, write, &r2)
		res.Latency += r2.Latency
		res.Invalidations += r2.Invalidations
		if r2.Miss != MissNone && res.Miss == MissNone {
			res.Miss = r2.Miss
		}
		if r2.FalseSharing && !res.FalseSharing {
			res.WriterAddr, res.WriterLen = r2.WriterAddr, r2.WriterLen
		}
		res.FalseSharing = res.FalseSharing || r2.FalseSharing
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// accessLine handles a single-line access touching bytes [lo,hi), counting
// into the CPU's counters. res must arrive zeroed.
func (s *System) accessLine(cpu int, line int64, lo, hi int32, write bool, res *AccessResult) {
	st := &s.perCPU[cpu]
	st.Accesses++

	setIdx := line & s.setMask
	c := &s.caches[cpu]
	if c.n == nil {
		c.init(s.cfg)
	}
	base := int(setIdx) * s.cfg.Ways
	n := int(c.n[setIdx])

	// Repeat-access fast path: after any access, the line sits in the MRU
	// slot (hits rotate it there, fills append there), and nothing another
	// CPU does can move it — removeLine deletes it (the tag check below
	// fails), downgradeOwner rewrites state in place (read through the slot
	// stays current). So one tag compare against the MRU slot replaces the
	// set scan, and the LRU rotation is skipped because rotating the MRU
	// element is the identity. Reads hit in any state; writes keep the fast
	// path only in Modified (nothing can change) and Exclusive (the silent
	// E→M upgrade); a Shared write needs the directory and falls through.
	if mru := base + n - 1; n > 0 && c.lines[mru] == line {
		if !write {
			st.Hits++
			res.Latency = s.topo.HitLatency
			return
		}
		switch c.state[mru] {
		case Modified:
			st.Hits++
			c.info[mru].recordWrite(cpu, lo, hi)
			res.Latency = s.topo.HitLatency
			return
		case Exclusive:
			c.state[mru] = Modified
			st.Hits++
			c.info[mru].recordWrite(cpu, lo, hi)
			res.Latency = s.topo.HitLatency
			return
		}
	}

	// Look up in this CPU's cache.
	for i := base; i < base+n; i++ {
		if c.lines[i] != line {
			continue
		}
		li := c.info[i]
		state := c.state[i]
		// Present. Bump LRU: rotate the line to the MRU slot.
		mru := base + n - 1
		c.toMRU(i, mru)
		if !write {
			st.Hits++
			res.Latency = s.topo.HitLatency
			return
		}
		switch state {
		case Modified:
			st.Hits++
			li.recordWrite(cpu, lo, hi)
			res.Latency = s.topo.HitLatency
			return
		case Exclusive:
			c.state[mru] = Modified
			st.Hits++
			li.recordWrite(cpu, lo, hi)
			res.Latency = s.topo.HitLatency
			return
		default: // Shared: upgrade
			lat, inv := s.invalidateOthers(cpu, li, st)
			c.state[mru] = Modified
			li.owner = int32(cpu)
			st.Upgrades++
			li.recordWrite(cpu, lo, hi)
			if lat < s.topo.HitLatency {
				lat = s.topo.HitLatency
			}
			res.Latency, res.Miss, res.Invalidations = lat, MissUpgrade, inv
			return
		}
	}

	// Miss path.
	li := s.getOrCreate(line)

	switch {
	case !li.everCached.get(cpu):
		res.Miss = MissCold
		st.ColdMisses++
	case li.invalidated.get(cpu):
		res.Miss = MissCoherence
		st.CohMisses++
		if li.hasLastWrite && int(li.lastWriter) != cpu && (hi <= li.lastWriteLo || lo >= li.lastWriteHi) {
			res.FalseSharing = true
			res.WriterAddr = line<<s.lineShift + int64(li.lastWriteLo)
			res.WriterLen = li.lastWriteHi - li.lastWriteLo
			st.FalseSharing++
		} else if li.hasLastWrite && int(li.lastWriter) != cpu {
			st.TrueSharing++
		}
	default:
		res.Miss = MissReplacement
		st.ReplMisses++
	}

	var newState State
	if write {
		// Read-for-ownership: fetch and invalidate everyone else.
		fetchLat := s.fetchLatency(cpu, li, st)
		invLat, inv := s.invalidateOthers(cpu, li, st)
		if invLat > fetchLat {
			fetchLat = invLat
		}
		res.Latency = fetchLat
		res.Invalidations = inv
		newState = Modified
		li.owner = int32(cpu)
		li.recordWrite(cpu, lo, hi)
	} else {
		res.Latency = s.fetchLatency(cpu, li, st)
		if li.owner >= 0 {
			// Downgrade the owner to Shared; Modified data is written back.
			ownerCPU := int(li.owner)
			if s.downgradeOwner(ownerCPU, line) {
				st.Writebacks++
			}
			li.owner = -1
			newState = Shared
		} else if !li.sharers.empty() {
			newState = Shared
		} else {
			newState = Exclusive
			li.owner = int32(cpu)
		}
	}

	s.insert(cpu, setIdx, li, newState, st)
	li.sharers.set(cpu)
	li.everCached.set(cpu)
	li.invalidated.clear(cpu)
}

// fetchLatency computes where the line comes from and the resulting cost:
// the owner's cache, else the nearest sharer's, else memory.
func (s *System) fetchLatency(cpu int, li *lineInfo, st *Stats) int64 {
	if li.owner >= 0 && int(li.owner) != cpu {
		return s.topo.TransferLatency(int(li.owner), cpu)
	}
	if nearest := s.nearestSharer(cpu, li.sharers); nearest >= 0 {
		return s.topo.TransferLatency(nearest, cpu)
	}
	st.MemFetches++
	return s.topo.MemLatency(cpu, li.line)
}

// invalidateOthers removes all other CPUs' copies; returns the worst-case
// round-trip latency and the invalidation count.
func (s *System) invalidateOthers(cpu int, li *lineInfo, st *Stats) (int64, int) {
	var worst int64
	count := 0
	li.sharers.forEach(func(other int) {
		if other == cpu {
			return
		}
		if s.removeLine(other, li.line) {
			count++
			li.invalidated.set(other)
			if lat := s.topo.TransferLatency(cpu, other); lat > worst {
				worst = lat
			}
		}
		li.sharers.clear(other)
	})
	if count > 0 {
		st.Invalidations += uint64(count)
	}
	if int(li.owner) != cpu {
		li.owner = -1
	}
	return worst, count
}

// downgradeOwner transitions the owner's copy M/E -> S; reports whether a
// writeback (from M) occurred.
func (s *System) downgradeOwner(owner int, line int64) bool {
	c := &s.caches[owner]
	if c.n == nil {
		return false
	}
	setIdx := line & s.setMask
	base := int(setIdx) * s.cfg.Ways
	for i := base; i < base+int(c.n[setIdx]); i++ {
		if c.lines[i] == line {
			wb := c.state[i] == Modified
			c.state[i] = Shared
			return wb
		}
	}
	return false
}

// removeLine deletes the line from a CPU's cache; reports whether it was
// present.
func (s *System) removeLine(cpu int, line int64) bool {
	c := &s.caches[cpu]
	if c.n == nil {
		return false
	}
	setIdx := line & s.setMask
	base := int(setIdx) * s.cfg.Ways
	top := base + int(c.n[setIdx])
	for i := base; i < top; i++ {
		if c.lines[i] == line {
			copy(c.lines[i:top-1], c.lines[i+1:top])
			copy(c.info[i:top-1], c.info[i+1:top])
			copy(c.state[i:top-1], c.state[i+1:top])
			c.info[top-1] = nil
			c.n[setIdx]--
			return true
		}
	}
	return false
}

// insert places the line into the CPU's cache, evicting LRU on overflow.
// The set's window in the backing arrays is fixed, so eviction shifts in
// place and the fill never allocates.
func (s *System) insert(cpu int, setIdx int64, li *lineInfo, newState State, st *Stats) {
	c := &s.caches[cpu]
	if c.n == nil {
		c.init(s.cfg)
	}
	base := int(setIdx) * s.cfg.Ways
	n := int(c.n[setIdx])
	if n >= s.cfg.Ways {
		victim := c.info[base]
		victimState := c.state[base]
		top := base + n
		copy(c.lines[base:top-1], c.lines[base+1:top])
		copy(c.info[base:top-1], c.info[base+1:top])
		copy(c.state[base:top-1], c.state[base+1:top])
		n--
		victim.sharers.clear(cpu)
		// Eviction is not an invalidation: the next miss is a replacement
		// miss, so do not touch victim.invalidated.
		if int(victim.owner) == cpu {
			victim.owner = -1
			if victimState == Modified {
				st.Writebacks++
			}
		}
	}
	c.lines[base+n] = li.line
	c.info[base+n] = li
	c.state[base+n] = newState
	c.n[setIdx] = int16(n + 1)
}

// ReadHit performs cpu's read of the line holding addr if that line is
// resident in cpu's cache, exactly as AccessInto does for such a read: it
// counts the access and the hit in cpu's counters, rotates the line to its
// set's MRU way and fills *res with the hit's outcome. It reports whether
// it did; when the line is not resident it changes nothing at all. The
// read must lie within one line. The execution engine completes the reads
// it runs ahead of the scheduler with it: the probe is the access.
func (s *System) ReadHit(cpu int, addr int64, res *AccessResult) bool {
	c := &s.caches[cpu]
	if c.n == nil {
		return false
	}
	line := addr >> s.lineShift
	setIdx := line & s.setMask
	base := int(setIdx) * s.cfg.Ways
	mru := base + int(c.n[setIdx]) - 1
	i := mru
	for i >= base && c.lines[i] != line {
		i--
	}
	if i < base {
		return false
	}
	if i < mru {
		c.toMRU(i, mru)
	}
	st := &s.perCPU[cpu]
	st.Accesses++
	st.Hits++
	*res = AccessResult{Latency: s.topo.HitLatency}
	return true
}

// recordWrite remembers the byte range of the most recent write for
// false-sharing classification.
func (li *lineInfo) recordWrite(cpu int, lo, hi int32) {
	li.lastWriter = int32(cpu)
	li.lastWriteLo = lo
	li.lastWriteHi = hi
	li.hasLastWrite = true
}
