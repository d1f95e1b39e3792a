package memo

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// GCResult summarizes one disk-tier garbage collection pass.
type GCResult struct {
	// Scanned entries (and their byte total) found before collection.
	Scanned      int
	ScannedBytes int64
	// Removed entries (and their byte total): aged out or evicted for the
	// size budget. Stale temp files from interrupted writes count too.
	Removed      int
	RemovedBytes int64
	// Corrupt counts entries that fail verification (torn by a crash,
	// damaged, or named for no key) found and removed regardless of age or
	// size budget. They are included in Removed/RemovedBytes.
	Corrupt int
}

// String renders the pass outcome.
func (r GCResult) String() string {
	s := fmt.Sprintf("scanned %d entries (%d bytes), removed %d (%d bytes), %d kept (%d bytes)",
		r.Scanned, r.ScannedBytes, r.Removed, r.RemovedBytes, r.Scanned-r.Removed, r.ScannedBytes-r.RemovedBytes)
	if r.Corrupt > 0 {
		s += fmt.Sprintf(", %d corrupt collected", r.Corrupt)
	}
	return s
}

// GC ages the disk tier: entries whose modification time is older than
// maxAge are removed, then the oldest remaining entries are evicted until
// the tier fits within maxBytes. A zero maxAge or maxBytes disables that
// criterion; emptied shard directories are pruned. The in-memory tier is
// untouched — it dies with the process anyway — and concurrent readers
// are safe: an entry vanishing between stat and use degrades to a cache
// miss by construction.
func (c *Cache) GC(now time.Time, maxAge time.Duration, maxBytes int64) (GCResult, error) {
	c.mu.Lock()
	dir := c.dir
	c.mu.Unlock()
	var res GCResult
	if dir == "" {
		return res, fmt.Errorf("memo: GC needs a disk tier (no cache dir set)")
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	shards, err := os.ReadDir(dir)
	if err != nil {
		return res, fmt.Errorf("memo: GC: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		shardPath := filepath.Join(dir, shard.Name())
		files, err := os.ReadDir(shardPath)
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			isEntry := strings.HasSuffix(f.Name(), ".json")
			isTemp := strings.HasPrefix(f.Name(), ".tmp-")
			if !isEntry && !isTemp {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			if isTemp {
				// Leftovers from interrupted writes: age out with the same
				// horizon, but never let them linger past a size-only GC.
				if maxAge <= 0 || now.Sub(info.ModTime()) > maxAge {
					if os.Remove(filepath.Join(shardPath, f.Name())) == nil {
						res.Removed++
						res.RemovedBytes += info.Size()
					}
				}
				continue
			}
			path := filepath.Join(shardPath, f.Name())
			res.Scanned++
			res.ScannedBytes += info.Size()
			// An entry that fails verification (a crash mid-write on a
			// filesystem that exposed the rename before the data, say) is
			// garbage whatever its age: it can never hit, only waste a
			// read. Collect it now.
			k, named := entryKey(shard.Name(), f.Name())
			if _, rerr := readEntry(path, k); !named || rerr == errCorrupt {
				if os.Remove(path) == nil {
					res.Removed++
					res.RemovedBytes += info.Size()
					res.Corrupt++
				}
				continue
			}
			entries = append(entries, entry{
				path:  path,
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	// Oldest first; ties break by path for determinism.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	var kept int64
	for _, e := range entries {
		kept += e.size
	}
	remove := func(e entry) {
		if err := os.Remove(e.path); err == nil || os.IsNotExist(err) {
			res.Removed++
			res.RemovedBytes += e.size
			kept -= e.size
		}
	}
	idx := 0
	if maxAge > 0 {
		for ; idx < len(entries) && now.Sub(entries[idx].mtime) > maxAge; idx++ {
			remove(entries[idx])
		}
	}
	if maxBytes > 0 {
		for ; idx < len(entries) && kept > maxBytes; idx++ {
			remove(entries[idx])
		}
	}
	// Prune shard directories the pass emptied; a non-empty or racing
	// directory just stays.
	for _, shard := range shards {
		if shard.IsDir() {
			os.Remove(filepath.Join(dir, shard.Name()))
		}
	}
	return res, nil
}

// entryKey inverts Cache.path: the key whose entry the shard directory
// and file name hold, and whether they encode one.
func entryKey(shard, name string) (Key, bool) {
	var k Key
	b, err := hex.DecodeString(shard + strings.TrimSuffix(name, ".json"))
	if err != nil || len(b) != len(k) {
		return k, false
	}
	copy(k[:], b)
	return k, true
}
