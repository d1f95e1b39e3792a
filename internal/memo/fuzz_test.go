package memo

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzMemoEntry writes arbitrary bytes as the disk entry of a real
// measurement key. Do must never fail and must return the computed value
// (bytes that verify under the key but hold another value would be a
// SHA-256 preimage), and the recomputation must leave an entry that a
// cold cache then serves from disk.
func FuzzMemoEntry(f *testing.F) {
	k := keyOf(f, testLayouts(f), 42, nil)
	want := []byte(`{"mean":762139990,"runs":[762139990,761905302]}`)
	sum := entrySum(k, want)
	f.Add([]byte{})
	f.Add(want)
	f.Add([]byte(`{"mean": 1.5, "runs": [1.`))
	f.Add(append(sum[:], want...))
	f.Add(append(sum[:], `{"mean":862139990,"runs":[762139990,761905302]}`...))
	f.Add(append(sum[:len(sum)-1], want...))
	f.Fuzz(func(t *testing.T, entry []byte) {
		c := New()
		if err := c.SetDir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		p := c.path(k)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := c.Do(k, func() ([]byte, error) { return want, nil })
		if err != nil {
			t.Fatalf("Do failed on a damaged entry: %v", err)
		}
		if string(v) != string(want) {
			t.Fatalf("Do returned %q, want the computed %q", v, want)
		}
		cold := New()
		if err := cold.SetDir(c.dir); err != nil {
			t.Fatal(err)
		}
		if v, ok := cold.get(k); !ok || string(v) != string(want) {
			t.Fatalf("entry after Do: hit %v, value %q", ok, v)
		}
	})
}
