package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sort"

	"structlayout/internal/coherence"
	"structlayout/internal/faults"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
)

// Key identifies one cached computation: the sha256 of a canonical
// encoding of everything that can influence its result.
type Key [sha256.Size]byte

// Hasher accumulates canonical key components. Every component is written
// as a length-prefixed tagged record, so distinct component sequences can
// never produce the same byte stream by concatenation coincidence
// ("ab"+"c" vs "a"+"bc"), and a component's meaning is fixed by its tag
// rather than its position.
//
// The zero value is not usable; call NewHasher, which seeds the stream
// with SchemaVersion so every key is invalidated by a schema bump.
type Hasher struct {
	h hash.Hash
}

// NewHasher returns a Hasher seeded with the schema version.
func NewHasher() *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Int("schema", SchemaVersion)
	return h
}

// record writes one tagged, length-prefixed component.
func (h *Hasher) record(tag string, payload []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(tag)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	h.h.Write(hdr[:])
	h.h.Write([]byte(tag))
	h.h.Write(payload)
}

// Str adds a string component.
func (h *Hasher) Str(tag, v string) { h.record(tag, []byte(v)) }

// Int adds an integer component.
func (h *Hasher) Int(tag string, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.record(tag, b[:])
}

// Ints adds an integer-slice component.
func (h *Hasher) Ints(tag string, vs []int64) {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	h.record(tag, b)
}

// F64 adds a float64 component by exact bit pattern.
func (h *Hasher) F64(tag string, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.record(tag, b[:])
}

// Layout adds a layout's memory-relevant content: the struct identity
// (name plus each field's size and alignment) and the byte placement
// (offsets, total size, line size). The layout's display Name and the
// Order permutation are deliberately excluded — Offsets already determines
// where every field lives, so two layouts that place bytes identically
// hash equal even if they were derived differently or labeled differently.
func (h *Hasher) Layout(tag string, l *layout.Layout) {
	h.Str(tag+".struct", l.Struct.Name)
	fs := make([]int64, 0, 2*len(l.Struct.Fields))
	for _, f := range l.Struct.Fields {
		fs = append(fs, int64(f.Size), int64(f.Align))
	}
	h.Ints(tag+".fields", fs)
	offs := make([]int64, len(l.Offsets))
	for i, o := range l.Offsets {
		offs[i] = int64(o)
	}
	h.Ints(tag+".offsets", offs)
	h.Int(tag+".size", int64(l.Size))
	h.Int(tag+".linesize", int64(l.LineSize))
}

// Layouts adds a label→layout map in sorted-label order, so the key is
// independent of map iteration order.
func (h *Hasher) Layouts(tag string, ls map[string]*layout.Layout) {
	labels := make([]string, 0, len(ls))
	for k := range ls {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	h.Int(tag+".n", int64(len(labels)))
	for _, k := range labels {
		h.Str(tag+".label", k)
		h.Layout(tag+"["+k+"]", ls[k])
	}
}

// Topology adds every latency-relevant topology parameter. Name is
// included: built-in machines are identified by name, and hashing it
// guards against two differently named machines being conflated if they
// momentarily share parameters.
func (h *Hasher) Topology(tag string, t *machine.Topology) {
	h.Str(tag+".name", t.Name)
	shape := make([]int64, len(t.Shape))
	for i, s := range t.Shape {
		shape[i] = int64(s)
	}
	h.Ints(tag+".shape", shape)
	h.Ints(tag+".c2c", t.CacheToCache)
	h.Int(tag+".membase", t.MemBase)
	h.Int(tag+".memper", t.MemPerLevel)
	h.Int(tag+".hit", t.HitLatency)
	h.F64(tag+".clock", t.ClockHz)
}

// CacheConfig adds the simulated cache geometry.
func (h *Hasher) CacheConfig(tag string, c coherence.Config) {
	h.Int(tag+".linesize", c.LineSize)
	h.Int(tag+".sets", int64(c.Sets))
	h.Int(tag+".ways", int64(c.Ways))
}

// FaultSpec adds a fault-injection spec via its canonical String form
// (sorted kinds, seed; "none" for nil or identity specs). A nil spec and
// an all-zero-severity spec hash equal, matching their identical effect.
func (h *Hasher) FaultSpec(tag string, s *faults.Spec) {
	h.Str(tag, s.String())
}

// Sum finalizes the key. The Hasher must not be used afterwards.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// String returns a short hex prefix for logs.
func (k Key) String() string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[2*i] = hexdigits[k[i]>>4]
		b[2*i+1] = hexdigits[k[i]&0xf]
	}
	return string(b[:])
}
