// Package machine models the multiprocessor topologies of the paper's
// evaluation (§5): a 128-processor HP Superdome (64 dual-CPU mx2 chips, two
// chips per bus, two buses per cell, four cells per crossbar, four crossbars
// connected together), a small 4-processor bus machine, and the 16-way
// machine used to collect concurrency data (§4.3).
//
// A topology is a tree of grouping levels. The cost of a cache-to-cache
// transfer or a memory access depends on the first (coarsest) level at which
// the two endpoints' coordinates differ — intra-cell latencies are smaller
// than intra-crossbar latencies, which are smaller than inter-crossbar
// latencies; the paper quotes ~1000 cycles for an inter-crossbar cache
// access and "only slightly higher than an L2 miss" for the 4-way bus box.
package machine

import (
	"fmt"
	"strings"
)

// MaxCPUs bounds the processor count a topology may declare; it keeps a
// malformed shape (data-driven topologies) from sizing simulator state to
// absurdity. The paper's largest machine has 128 CPUs.
const MaxCPUs = 1 << 16

// Topology describes one machine.
type Topology struct {
	// Name identifies the machine in reports ("Superdome128", "Bus4", ...).
	Name string
	// Shape lists the fan-out per level from coarsest to finest; the product
	// is the CPU count. Superdome128 is [4 crossbars, 4 cells, 2 buses,
	// 2 chips, 2 cores].
	Shape []int
	// CacheToCache[d] is the latency in cycles of a cache-to-cache line
	// transfer between two CPUs whose coordinates first differ at level d
	// (0 = coarsest). CacheToCache[len(Shape)] is the same-CPU case and is
	// unused for transfers. Must have len(Shape) entries (d in 0..len-1).
	CacheToCache []int64
	// MemBase is the latency of a memory access whose home node is the
	// CPU's own top-level domain.
	MemBase int64
	// MemPerLevel is added once per level separating the CPU from the
	// line's home node (distributed memory: remote-cell memory is slower).
	MemPerLevel int64
	// HitLatency is a cache hit in the CPU's own cache.
	HitLatency int64
	// ClockHz converts cycles to wall time; the paper's CPUs run at 1.2 GHz.
	ClockHz float64

	numCPUs int
	strides []int
	// xfer is the precomputed n×n cache-to-cache latency table (including
	// the same-CPU hit case), built by Validate for machines small enough
	// that the quadratic table is cheap. It turns the per-access
	// TransferLatency from a div/mod loop over levels into one load — the
	// coherence simulator calls it on every remote fetch and invalidation.
	xfer []int64
	// topOf[cpu] is the CPU's coarsest-level coordinate (home-domain check
	// in MemLatency).
	topOf []int32
}

// xferTableMax bounds the CPU count for which Validate precomputes the
// quadratic transfer-latency table (512² × 8 B = 2 MiB worst case).
const xferTableMax = 512

// Validate checks internal consistency and precomputes coordinate strides.
func (t *Topology) Validate() error {
	if len(t.Shape) == 0 {
		return fmt.Errorf("machine %s: empty shape", t.Name)
	}
	n := 1
	for _, s := range t.Shape {
		if s <= 0 {
			return fmt.Errorf("machine %s: non-positive fan-out %d", t.Name, s)
		}
		n *= s
		if n > MaxCPUs {
			return fmt.Errorf("machine %s: %d CPUs exceeds the supported maximum %d", t.Name, n, MaxCPUs)
		}
	}
	if len(t.CacheToCache) != len(t.Shape) {
		return fmt.Errorf("machine %s: CacheToCache has %d entries, want %d", t.Name, len(t.CacheToCache), len(t.Shape))
	}
	for d := 1; d < len(t.CacheToCache); d++ {
		if t.CacheToCache[d] > t.CacheToCache[d-1] {
			return fmt.Errorf("machine %s: latency increases with distance: level %d (%d) > level %d (%d)",
				t.Name, d, t.CacheToCache[d], d-1, t.CacheToCache[d-1])
		}
	}
	if t.HitLatency <= 0 || t.MemBase <= 0 || t.ClockHz <= 0 {
		return fmt.Errorf("machine %s: non-positive base latencies", t.Name)
	}
	t.numCPUs = n
	t.strides = make([]int, len(t.Shape))
	stride := 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= t.Shape[i]
	}
	t.topOf = make([]int32, n)
	for cpu := 0; cpu < n; cpu++ {
		t.topOf[cpu] = int32((cpu / t.strides[0]) % t.Shape[0])
	}
	t.xfer = nil
	if n <= xferTableMax {
		t.xfer = make([]int64, n*n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				d := t.distance(a, b)
				if d >= len(t.Shape) {
					t.xfer[a*n+b] = t.HitLatency
				} else {
					t.xfer[a*n+b] = t.CacheToCache[d]
				}
			}
		}
	}
	return nil
}

// NumCPUs returns the processor count.
func (t *Topology) NumCPUs() int { return t.numCPUs }

// distance returns the coarsest level at which a and b differ, or
// len(Shape) when a == b (no transfer needed).
func (t *Topology) distance(a, b int) int {
	if a == b {
		return len(t.Shape)
	}
	for i := range t.Shape {
		if (a/t.strides[i])%t.Shape[i] != (b/t.strides[i])%t.Shape[i] {
			return i
		}
	}
	return len(t.Shape)
}

// TransferLatency returns the cache-to-cache latency between two CPUs.
// Same-CPU "transfers" cost a hit.
func (t *Topology) TransferLatency(from, to int) int64 {
	if t.xfer != nil {
		return t.xfer[from*t.numCPUs+to]
	}
	d := t.distance(from, to)
	if d >= len(t.Shape) {
		return t.HitLatency
	}
	return t.CacheToCache[d]
}

// HomeNode returns the top-level domain (e.g. crossbar) that owns the
// memory for the given line address. Lines are distributed round-robin over
// top-level domains at 4 KiB-page granularity, approximating the
// Superdome's cell-distributed RAM.
func (t *Topology) HomeNode(line int64) int {
	const pageShift = 12
	top := int64(t.Shape[0])
	return int((line >> pageShift) % top)
}

// MemLatency returns the latency of a memory access by cpu to the given
// line, accounting for the home node's placement.
func (t *Topology) MemLatency(cpu int, line int64) int64 {
	home := t.HomeNode(line)
	myTop := int(t.topOf[cpu])
	if home == myTop {
		return t.MemBase
	}
	return t.MemBase + t.MemPerLevel
}

// Seconds converts cycles to seconds.
func (t *Topology) Seconds(cycles int64) float64 { return float64(cycles) / t.ClockHz }

// Superdome128 models the paper's 128-way HP Superdome: 64 mx2 chips each
// with two Itanium 2 CPUs, two chips per bus, two buses per cell, four
// cells per crossbar, four crossbars. Remote-crossbar cache accesses cost
// around 1000 cycles (§5).
func Superdome128() *Topology {
	t := &Topology{
		Name:  "Superdome128",
		Shape: []int{4, 4, 2, 2, 2}, // crossbar, cell, bus, chip, core
		CacheToCache: []int64{
			1000, // different crossbar
			400,  // same crossbar, different cell
			220,  // same cell, different bus
			150,  // same bus, different chip
			80,   // same chip, other core
		},
		MemBase:     260,
		MemPerLevel: 240,
		HitLatency:  2,
		ClockHz:     1.2e9,
	}
	mustValidate(t)
	return t
}

// Superdome64 models a half-populated Superdome: two crossbars, 64 CPUs.
// Useful for sensitivity studies of false-sharing cost versus machine size.
func Superdome64() *Topology {
	t := &Topology{
		Name:  "Superdome64",
		Shape: []int{2, 4, 2, 2, 2}, // crossbar, cell, bus, chip, core
		CacheToCache: []int64{
			1000, // different crossbar
			400,  // same crossbar, different cell
			220,  // same cell, different bus
			150,  // same bus, different chip
			80,   // same chip, other core
		},
		MemBase:     260,
		MemPerLevel: 240,
		HitLatency:  2,
		ClockHz:     1.2e9,
	}
	mustValidate(t)
	return t
}

// Superdome32 models a single crossbar's worth of cells: 32 CPUs.
func Superdome32() *Topology {
	t := &Topology{
		Name:  "Superdome32",
		Shape: []int{4, 2, 2, 2}, // cell, bus, chip, core
		CacheToCache: []int64{
			400, // different cell
			220, // same cell, different bus
			150, // same bus, different chip
			80,  // same chip, other core
		},
		MemBase:     260,
		MemPerLevel: 160,
		HitLatency:  2,
		ClockHz:     1.2e9,
	}
	mustValidate(t)
	return t
}

// Way16 models the 16-processor machine used for concurrency collection:
// four cells of four CPUs behind one crossbar.
func Way16() *Topology {
	t := &Topology{
		Name:  "Way16",
		Shape: []int{4, 2, 2}, // cell, bus, core
		CacheToCache: []int64{
			380, // different cell
			180, // same cell, different bus
			90,  // same bus
		},
		MemBase:     240,
		MemPerLevel: 120,
		HitLatency:  2,
		ClockHz:     1.2e9,
	}
	mustValidate(t)
	return t
}

// Bus4 models the small 4-processor bus-based machine, where "the cost of
// accessing remote caches is only slightly higher than an L2 miss" (§5).
func Bus4() *Topology {
	t := &Topology{
		Name:         "Bus4",
		Shape:        []int{4}, // one bus, four CPUs
		CacheToCache: []int64{130},
		MemBase:      110,
		MemPerLevel:  0,
		HitLatency:   2,
		ClockHz:      1.2e9,
	}
	mustValidate(t)
	return t
}

// Uniprocessor returns a single-CPU machine, useful for locality-only
// experiments and tests.
func Uniprocessor() *Topology {
	t := &Topology{
		Name:         "UP1",
		Shape:        []int{1},
		CacheToCache: []int64{100},
		MemBase:      110,
		MemPerLevel:  0,
		HitLatency:   2,
		ClockHz:      1.2e9,
	}
	mustValidate(t)
	return t
}

// ByName resolves a machine name from user input (CLI flags, config
// files) to a built-in topology, returning an error — never panicking —
// for unknown names. Matching is case-insensitive.
func ByName(name string) (*Topology, error) {
	switch strings.ToLower(name) {
	case "bus4":
		return Bus4(), nil
	case "way16":
		return Way16(), nil
	case "superdome32":
		return Superdome32(), nil
	case "superdome64":
		return Superdome64(), nil
	case "superdome128":
		return Superdome128(), nil
	case "up1", "uniprocessor":
		return Uniprocessor(), nil
	default:
		return nil, fmt.Errorf("machine: unknown machine %q (want %s)", name, strings.Join(Names(), ", "))
	}
}

// Names lists the built-in machine names ByName accepts.
func Names() []string {
	return []string{"bus4", "way16", "superdome32", "superdome64", "superdome128", "uniprocessor"}
}

// mustValidate guards a programmer-error invariant: the built-in
// topologies above are static literals, so a validation failure means the
// source code itself is wrong, not any input. Data-driven topologies must
// go through Validate (or ByName) and handle the error.
func mustValidate(t *Topology) {
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("machine: built-in topology is invalid (programmer error): %v", err))
	}
}
