// Package memo is a content-addressed measurement cache. A simulated
// measurement is a pure function of its configuration — program and run
// harness, layouts, machine topology, cache geometry, run count, seeds,
// fault spec — so its result can be keyed by a canonical hash of that
// configuration and reused instead of re-simulated. The experiments
// pipeline measures the same (workload, layout, machine, seed) cell many
// times across figure configs (Figure 8 and Figure 10 share their baseline
// and every "auto" cell; the robustness sweep re-measures the Figure 9
// baseline); memoization computes each distinct cell once.
//
// The cache has two tiers: an in-memory tier that is always on (it can
// only return what an identical computation would produce), and an
// optional on-disk tier (-cache-dir on cmd/experiments and cmd/layouttool)
// that persists results across processes, making warm re-runs of the whole
// figure pipeline nearly free.
//
// Correctness rests on four rules:
//
//   - keys are canonical: logically identical configurations hash equal
//     regardless of map iteration order or display names, and any input
//     that can change a result (seed, fault spec, run count) is hashed;
//   - values round-trip losslessly: results are stored as JSON, and Go's
//     encoding/json writes float64 in shortest-exact form, so a decoded
//     measurement is bit-identical to the computed one — warm and cold
//     runs render byte-identical tables;
//   - disk entries verify themselves: each holds the SHA-256 of its key
//     and value ahead of the value, and an entry whose sum does not match
//     (torn by a crash, damaged, edited by hand, or moved to another key's
//     name) is never served;
//   - the schema version participates in every key, so a change to what a
//     measurement means invalidates all prior entries by construction
//     (bump SchemaVersion; stale disk entries simply never hit again).
package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// SchemaVersion invalidates every previously cached entry when the meaning
// or encoding of cached values changes. It is hashed into every key.
//
// Version history:
//   - 5: every disk entry starts with the SHA-256 of its key and value,
//     checked on every read, and values need not be JSON.
//   - 4: every key hashes the file as irtext.Format prints it (program,
//     arenas and threads in one record) in place of a second, IR-level
//     program text and separate arena and thread records; the suite and
//     the driver share one collection cell, which records the sampling
//     seed and fault spec for both, and measurements stop writing a
//     constant clean fault spec.
//   - 3: the built-in suite's keys hash its program and harness as a
//     DSL program's do (workload.HashFile), and the records that kept
//     version-2 keys stable (the exact engine's zero simulation-mode
//     records, the cache geometry's zero protocol) are gone.
//   - 2: measurement keys carry the simulation mode and sampling
//     parameters, and the scheduler's strict (time, id) shared-operation
//     ordering changed every simulated interleaving.
//   - 1: initial schema.
const SchemaVersion = 5

// Stats counts cache outcomes. Counters only increase; subtract two
// snapshots to attribute traffic to a pipeline stage.
type Stats struct {
	// MemHits served from the in-memory tier.
	MemHits uint64
	// DiskHits served from the on-disk tier (and promoted to memory).
	DiskHits uint64
	// Misses computed fresh.
	Misses uint64
	// Errors counts disk-tier read/write failures (the cache degrades to
	// recomputation; an unreadable entry is never an error for the caller).
	Errors uint64
}

// Hits returns the total served-from-cache count.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits }

// Sub returns the per-stage delta s - prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		MemHits:  s.MemHits - prev.MemHits,
		DiskHits: s.DiskHits - prev.DiskHits,
		Misses:   s.Misses - prev.Misses,
		Errors:   s.Errors - prev.Errors,
	}
}

// Cache is a two-tier content-addressed store. The zero value is not
// usable; call New.
type Cache struct {
	mu       sync.Mutex
	mem      map[Key][]byte
	inflight map[Key]*flight
	dir      string
	stats    Stats
}

// flight is one in-progress computation other goroutines can wait on.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// New returns an empty cache with only the in-memory tier enabled.
func New() *Cache {
	return &Cache{
		mem:      make(map[Key][]byte),
		inflight: make(map[Key]*flight),
	}
}

// shared is the process-wide cache consulted by workload.Measure/Collect.
// Like parallel's worker pool, it is deliberately process-global: every
// measurement in the process is a pure function of its key, so sharing one
// cache is always sound and spares threading a handle through every suite
// and pipeline constructor.
var shared = New()

// Shared returns the process-wide cache.
func Shared() *Cache { return shared }

// SetDir enables the on-disk tier rooted at dir, creating it if needed.
// An empty dir disables the disk tier.
func (c *Cache) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("memo: cache dir: %w", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dir = dir
	return nil
}

// Clear drops the in-memory tier and resets counters. The disk tier, if
// any, is untouched. Tests use it to force cold-cache behaviour.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem = make(map[Key][]byte)
	c.stats = Stats{}
}

// Contains reports whether k would be served from a tier right now,
// without computing, promoting, or counting anything. Callers use it to
// pick a degradation rung: a present entry means the work is (nearly)
// free replay, an absent one means real computation. The answer is
// advisory — a concurrent GC or writer can change it — so callers must
// still be correct when a later Do misses.
func (c *Cache) Contains(k Key) bool {
	c.mu.Lock()
	_, inMem := c.mem[k]
	dir := c.dir
	c.mu.Unlock()
	if inMem {
		return true
	}
	if dir == "" {
		return false
	}
	fi, err := os.Stat(c.path(k))
	return err == nil && fi.Size() > 0
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// path returns the disk-tier file for a key.
func (c *Cache) path(k Key) string {
	h := hex.EncodeToString(k[:])
	return filepath.Join(c.dir, h[:2], h[2:]+".json")
}

// errCorrupt marks a disk entry whose sum does not match its key and value.
var errCorrupt = errors.New("memo: corrupt disk entry")

// entrySum is the SHA-256 a disk entry stores ahead of its value.
func entrySum(k Key, v []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(k[:])
	h.Write(v)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// readEntry reads k's disk entry at path and returns its value, or
// errCorrupt when the stored sum does not match k and the value.
func readEntry(path string, k Key) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < sha256.Size || entrySum(k, raw[sha256.Size:]) != [sha256.Size]byte(raw[:sha256.Size]) {
		return nil, errCorrupt
	}
	return raw[sha256.Size:], nil
}

// get consults both tiers. Callers hold no locks. A corrupt disk entry is
// a miss (and a disk error); the recomputation overwrites it atomically.
func (c *Cache) get(k Key) ([]byte, bool) {
	c.mu.Lock()
	if v, ok := c.mem[k]; ok {
		c.stats.MemHits++
		c.mu.Unlock()
		return v, true
	}
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return nil, false
	}
	v, err := readEntry(c.path(k), k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if !os.IsNotExist(err) {
			c.stats.Errors++
		}
		return nil, false
	}
	c.stats.DiskHits++
	c.mem[k] = v
	return v, true
}

// put stores a value in both tiers. Disk failures degrade silently: the
// next process recomputes.
func (c *Cache) put(k Key, v []byte) {
	c.mu.Lock()
	c.mem[k] = v
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return
	}
	path := c.path(k)
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		// Write-temp, fsync, then rename: concurrent processes never observe
		// a torn entry, and a crash (or power loss) between write and rename
		// leaves only a temp file, never a short entry under the final name.
		var tmp *os.File
		tmp, err = os.CreateTemp(filepath.Dir(path), ".tmp-*")
		if err == nil {
			sum := entrySum(k, v)
			if _, err = tmp.Write(sum[:]); err == nil {
				_, err = tmp.Write(v)
			}
			if serr := tmp.Sync(); err == nil {
				err = serr
			}
			if cerr := tmp.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = os.Rename(tmp.Name(), path)
			}
			if err != nil {
				os.Remove(tmp.Name())
			} else if d, derr := os.Open(filepath.Dir(path)); derr == nil {
				// Persist the rename itself; best-effort (some filesystems
				// reject directory fsync, and the entry is only a cache).
				d.Sync()
				d.Close()
			}
		}
	}
	if err != nil {
		c.mu.Lock()
		c.stats.Errors++
		c.mu.Unlock()
	}
}

// land removes the finished flight fl of key k and wakes its waiters.
func (c *Cache) land(k Key, fl *flight) {
	c.mu.Lock()
	delete(c.inflight, k)
	c.mu.Unlock()
	close(fl.done)
}

// Do returns the cached value for k, computing and storing it on a miss.
// Concurrent callers with the same key share one computation (the pipeline
// fans identical cells out over the worker pool; without single-flight a
// cold cache would compute duplicates in parallel and win nothing).
// Compute errors propagate to every waiter and are never cached.
func (c *Cache) Do(k Key, compute func() ([]byte, error)) ([]byte, error) {
	for {
		if v, ok := c.get(k); ok {
			return v, nil
		}
		c.mu.Lock()
		// Re-check the memory tier under the lock: a racing flight may have
		// landed between get and here.
		if v, ok := c.mem[k]; ok {
			c.stats.MemHits++
			c.mu.Unlock()
			return v, nil
		}
		if fl, ok := c.inflight[k]; ok {
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			// A satisfied waiter is a hit for accounting: the work was
			// shared, not repeated.
			c.mu.Lock()
			c.stats.MemHits++
			c.mu.Unlock()
			return fl.val, nil
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[k] = fl
		c.stats.Misses++
		c.mu.Unlock()

		func() {
			// A panicking computation still lands its flight, as an error,
			// so its waiters fail instead of blocking forever and the next
			// caller computes afresh; the panic goes on up this caller.
			defer func() {
				if p := recover(); p != nil {
					fl.err = fmt.Errorf("memo: computation panicked: %v", p)
					c.land(k, fl)
					panic(p)
				}
			}()
			fl.val, fl.err = compute()
		}()
		if fl.err == nil {
			c.put(k, fl.val)
		}
		c.land(k, fl)
		if fl.err != nil {
			return nil, fl.err
		}
		return fl.val, nil
	}
}
