package memo

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tornEntry simulates a crash mid-write on a filesystem that exposed the
// final name before the data made it to disk: a truncated value, with no
// sum, under the entry's real path.
func tornEntry(t *testing.T, c *Cache, label string) Key {
	t.Helper()
	h := NewHasher()
	h.Str("torn", label)
	k := h.Sum()
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(`{"mean": 1.5, "runs": [1.`), 0o644); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGetToleratesTornEntry(t *testing.T) {
	c := New()
	if err := c.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	k := tornEntry(t, c, "a")
	recomputed := false
	v, err := c.Do(k, func() ([]byte, error) {
		recomputed = true
		return []byte(`{"mean":2}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("torn entry served as a hit instead of degrading to a miss")
	}
	if string(v) != `{"mean":2}` {
		t.Fatalf("got %q", v)
	}
	if st := c.Stats(); st.Errors == 0 {
		t.Fatal("torn entry read did not count as a disk error")
	}
	// The recomputation must have overwritten the torn file atomically: a
	// fresh cache (cold memory tier) now serves the entry from disk.
	c2 := New()
	if err := c2.SetDir(c.dir); err != nil {
		t.Fatal(err)
	}
	v2, ok := c2.get(k)
	if !ok || string(v2) != `{"mean":2}` {
		t.Fatalf("disk tier after recovery: ok=%v v=%q", ok, v2)
	}
}

func TestGCCollectsTornEntries(t *testing.T) {
	c := New()
	if err := c.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	seedDisk(t, c, 3, now)
	k := tornEntry(t, c, "b")
	torn := c.path(k)
	// Zero criteria: a plain pass keeps every valid entry but still
	// collects the torn one.
	res, err := c.GC(now, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1 (%s)", res.Corrupt, res)
	}
	if res.Removed != 1 {
		t.Fatalf("Removed = %d, want 1 (%s)", res.Removed, res)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn entry still on disk: %v", err)
	}
	// Valid entries survived.
	if res.Scanned-res.Removed != 3 {
		t.Fatalf("kept %d entries, want 3", res.Scanned-res.Removed)
	}
}

func TestGCSizeBudgetIgnoresCollectedCorruptBytes(t *testing.T) {
	c := New()
	if err := c.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	paths := seedDisk(t, c, 2, now)
	tornEntry(t, c, "c")
	var valid int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		valid += fi.Size()
	}
	// Budget exactly the valid bytes: with correct accounting nothing valid
	// is evicted (the corrupt entry's bytes are gone, not "kept").
	res, err := c.GC(now, 0, valid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 1 || res.Removed != 1 {
		t.Fatalf("removed %d (%d corrupt), want only the corrupt entry (%s)", res.Removed, res.Corrupt, res)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("valid entry evicted to pay for corrupt bytes: %v", err)
		}
	}
}
