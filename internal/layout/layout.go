// Package layout turns field orders, cluster partitions and layout
// constraints into concrete structure layouts: byte offsets with C
// alignment rules, padding, and cache-line assignment.
//
// Three layout producers from the paper live here:
//
//   - Original: the declaration order (the hand-tuned baseline in §5).
//   - SortByHotness: the naive heuristic of §5.1 — group fields by
//     alignment, sort each group by hotness, pack densely.
//   - PackClusters / ApplyConstraints: materializations of the FLG
//     clustering output (§4.4) and of the incremental "best performance"
//     mode (§5.2) that alters an existing layout to satisfy the important
//     clustering constraints.
//
// The paper's model assumes record instances are allocated at cache-line
// boundaries (true for the HP-UX arena allocator, §2); LineAlignedSize is
// the arena stride under that assumption.
package layout

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/ir"
)

// Layout assigns every field of a struct a byte offset.
type Layout struct {
	// Struct is the record type being laid out.
	Struct *ir.StructType
	// Name labels the layout in reports ("baseline", "flg-auto", ...).
	Name string
	// Order lists field indices in memory order.
	Order []int
	// Offsets maps field index -> byte offset.
	Offsets []int
	// Size is the struct size including trailing padding to MaxAlign.
	Size int
	// LineSize is the coherence-line size used for line assignment.
	LineSize int
}

// FromOrder lays fields out in the given order with C alignment rules:
// each field is placed at the next offset aligned to its requirement.
func FromOrder(st *ir.StructType, name string, order []int, lineSize int) (*Layout, error) {
	if lineSize <= 0 {
		return nil, fmt.Errorf("layout: non-positive line size %d", lineSize)
	}
	if err := checkPermutation(st, order); err != nil {
		return nil, err
	}
	l := &Layout{
		Struct:   st,
		Name:     name,
		Order:    append([]int(nil), order...),
		Offsets:  make([]int, len(st.Fields)),
		LineSize: lineSize,
	}
	off := 0
	for _, fi := range order {
		f := st.Fields[fi]
		off = align(off, f.Align)
		l.Offsets[fi] = off
		off += f.Size
	}
	l.Size = align(off, st.MaxAlign())
	if l.Size == 0 {
		l.Size = 1
	}
	return l, nil
}

// Original returns the declaration-order layout. The order is a valid
// permutation by construction, so the only error source is a bad line
// size, which reaches this function from user input (flags, configs).
func Original(st *ir.StructType, lineSize int) (*Layout, error) {
	order := make([]int, len(st.Fields))
	for i := range order {
		order[i] = i
	}
	return FromOrder(st, "baseline", order, lineSize)
}

// SortByHotness implements the naive heuristic the paper evaluates against
// (§5.1): "divides the fields into groups based on the alignment
// requirements. Then it sorts each group by hotness and places the field in
// that order. This results in a highly packed layout with hot fields placed
// close to each other." Alignment groups are emitted from the largest
// alignment down, so the packing wastes no padding; within a group, hotter
// fields come first. Ties break by field index for determinism.
func SortByHotness(st *ir.StructType, hotness map[int]float64, lineSize int) (*Layout, error) {
	order := make([]int, len(st.Fields))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := st.Fields[order[a]], st.Fields[order[b]]
		if fa.Align != fb.Align {
			return fa.Align > fb.Align
		}
		ha, hb := hotness[order[a]], hotness[order[b]]
		if ha != hb {
			return ha > hb
		}
		return order[a] < order[b]
	})
	return FromOrder(st, "sort-by-hotness", order, lineSize)
}

// PackClusters lays out a cluster partition. Clusters are placed in the
// given order; each cluster's fields stay contiguous and within one cache
// line (the clustering algorithm guarantees each cluster fits in a line),
// except a one-field cluster wider than a line, which starts on a line
// boundary and spans as many lines as it needs. Clusters pack first-fit
// into lines, but never onto a line holding a cluster they must be
// separated from: separate reports whether two clusters (by index) must
// not share a cache line — typically "a negative FLG edge connects them"
// — and may be nil when no separation constraints exist. A predicate that
// always holds puts every cluster on its own line. Padding is inserted
// when a cluster starts a new line.
func PackClusters(st *ir.StructType, name string, clusters [][]int, lineSize int, separate func(ci, cj int) bool) (*Layout, error) {
	var flat []int
	for _, c := range clusters {
		flat = append(flat, c...)
	}
	if err := checkPermutation(st, flat); err != nil {
		return nil, err
	}
	for ci, c := range clusters {
		if w := clusterBytes(st, c); w > lineSize && len(c) > 1 {
			return nil, fmt.Errorf("layout: cluster %d needs %d bytes > line size %d", ci, w, lineSize)
		}
	}

	l := &Layout{
		Struct:   st,
		Name:     name,
		Offsets:  make([]int, len(st.Fields)),
		LineSize: lineSize,
	}
	off := 0
	lineOccupants := make(map[int][]int) // line -> cluster indices
	for ci, c := range clusters {
		start := off
		// Would this cluster's aligned placement spill past the line end?
		end := start
		for _, fi := range c {
			end = align(end, st.Fields[fi].Align) + st.Fields[fi].Size
		}
		newLine := end > (start/lineSize+1)*lineSize && start%lineSize != 0
		if !newLine && separate != nil {
			for _, cj := range lineOccupants[start/lineSize] {
				if separate(ci, cj) || separate(cj, ci) {
					newLine = true
					break
				}
			}
		}
		if newLine {
			off = align(off, lineSize)
		}
		firstLine := off / lineSize
		for _, fi := range c {
			f := st.Fields[fi]
			off = align(off, f.Align)
			l.Offsets[fi] = off
			off += f.Size
			l.Order = append(l.Order, fi)
		}
		for line := firstLine; line <= (off-1)/lineSize; line++ {
			lineOccupants[line] = append(lineOccupants[line], ci)
		}
	}
	l.Size = align(off, st.MaxAlign())
	if l.Size == 0 {
		l.Size = 1
	}
	return l, nil
}

// ApplyConstraints implements the incremental mode of §5.2: keep the
// original layout's field order, but enforce the subgraph clustering's
// constraints — fields in the same cluster become adjacent (same line), and
// fields in different clusters never share a line.
//
// Each cluster becomes a movable unit anchored at its earliest member's
// original position; all remaining fields are singleton units in original
// order. Units lay out sequentially; a cluster unit starts a new line when
// the current line already holds a member of a different cluster or cannot
// fit it whole (so a one-field cluster wider than a line starts on a line
// boundary and spans the lines it needs), and a singleton unit starts a
// new line when the current line holds a cluster that must be kept apart
// from... nothing — singletons are unconstrained and simply pack.
func ApplyConstraints(orig *Layout, name string, clusters [][]int) (*Layout, error) {
	st := orig.Struct
	inCluster := make(map[int]int) // field -> cluster index
	for ci, c := range clusters {
		for _, fi := range c {
			if fi < 0 || fi >= len(st.Fields) {
				return nil, fmt.Errorf("layout: constraint field %d out of range", fi)
			}
			if prev, dup := inCluster[fi]; dup {
				return nil, fmt.Errorf("layout: field %d in clusters %d and %d", fi, prev, ci)
			}
			inCluster[fi] = ci
		}
		if w := clusterBytes(st, c); w > orig.LineSize && len(c) > 1 {
			return nil, fmt.Errorf("layout: constraint cluster %d needs %d bytes > line size", ci, w)
		}
	}

	// Build unit list in original order.
	type unit struct {
		cluster int // -1 for singleton
		fields  []int
	}
	var units []unit
	emitted := make(map[int]bool)
	for _, fi := range orig.Order {
		ci, clustered := inCluster[fi]
		if !clustered {
			units = append(units, unit{cluster: -1, fields: []int{fi}})
			continue
		}
		if emitted[fi] {
			continue
		}
		// Emit the whole cluster at its first member's position, members in
		// original relative order.
		members := append([]int(nil), clusters[ci]...)
		sort.Slice(members, func(a, b int) bool {
			return orig.Offsets[members[a]] < orig.Offsets[members[b]]
		})
		for _, m := range members {
			emitted[m] = true
		}
		units = append(units, unit{cluster: ci, fields: members})
	}

	l := &Layout{
		Struct:   st,
		Name:     name,
		Offsets:  make([]int, len(st.Fields)),
		LineSize: orig.LineSize,
	}
	lineSize := orig.LineSize
	off := 0
	lineClusters := make(map[int]map[int]bool) // line -> set of cluster ids
	markLines := func(from, to, ci int) {
		for line := from / lineSize; line <= (to-1)/lineSize; line++ {
			if lineClusters[line] == nil {
				lineClusters[line] = make(map[int]bool)
			}
			lineClusters[line][ci] = true
		}
	}
	for _, u := range units {
		start := off
		end := start
		for _, fi := range u.fields {
			end = align(end, st.Fields[fi].Align) + st.Fields[fi].Size
		}
		if u.cluster >= 0 {
			newLine := false
			// Must not share its line(s) with another cluster.
			for line := start / lineSize; line <= (end-1)/lineSize; line++ {
				for other := range lineClusters[line] {
					if other != u.cluster {
						newLine = true
					}
				}
			}
			// Must fit within one line.
			if end > (start/lineSize+1)*lineSize && start%lineSize != 0 {
				newLine = true
			}
			if newLine {
				off = align(off, lineSize)
			}
		} else {
			// Singleton: if placing it would land on a line claimed by a
			// cluster, that is fine (clusters only exclude *other
			// clusters*), so just pack.
			_ = u
		}
		ustart := off
		for _, fi := range u.fields {
			f := st.Fields[fi]
			off = align(off, f.Align)
			l.Offsets[fi] = off
			off += f.Size
			l.Order = append(l.Order, fi)
		}
		if u.cluster >= 0 {
			markLines(ustart, off, u.cluster)
		}
	}
	l.Size = align(off, st.MaxAlign())
	if l.Size == 0 {
		l.Size = 1
	}
	// Re-check separation: a singleton placed after a cluster may share its
	// line (allowed), but two clusters must never share.
	if err := l.checkClusterSeparation(clusters); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Layout) checkClusterSeparation(clusters [][]int) error {
	lineOf := make(map[int]int)
	for ci, c := range clusters {
		for _, fi := range c {
			lineOf[fi] = ci
		}
	}
	byLine := make(map[int]int) // line -> cluster claiming it
	for fi, ci := range lineOf {
		for _, line := range l.LinesOf(fi) {
			if prev, ok := byLine[line]; ok && prev != ci {
				return fmt.Errorf("layout: clusters %d and %d share line %d", prev, ci, line)
			}
			byLine[line] = ci
		}
	}
	return nil
}

// LineOf returns the cache line index of the field's first byte.
func (l *Layout) LineOf(fi int) int { return l.Offsets[fi] / l.LineSize }

// FieldAt returns the index of the field containing the byte offset, or -1
// for padding or out-of-range offsets.
func (l *Layout) FieldAt(off int) int {
	for fi, f := range l.Struct.Fields {
		if off >= l.Offsets[fi] && off < l.Offsets[fi]+f.Size {
			return fi
		}
	}
	return -1
}

// LinesOf returns all cache lines the field occupies.
func (l *Layout) LinesOf(fi int) []int {
	first := l.Offsets[fi] / l.LineSize
	last := (l.Offsets[fi] + l.Struct.Fields[fi].Size - 1) / l.LineSize
	out := make([]int, 0, last-first+1)
	for i := first; i <= last; i++ {
		out = append(out, i)
	}
	return out
}

// SameLine reports whether two fields share any cache line.
func (l *Layout) SameLine(f1, f2 int) bool {
	for _, a := range l.LinesOf(f1) {
		for _, b := range l.LinesOf(f2) {
			if a == b {
				return true
			}
		}
	}
	return false
}

// NumLines returns the number of cache lines the layout spans.
func (l *Layout) NumLines() int { return (l.Size + l.LineSize - 1) / l.LineSize }

// LineAlignedSize returns the arena stride: the size rounded up to a whole
// number of cache lines (instances are line-aligned, §2).
func (l *Layout) LineAlignedSize() int { return l.NumLines() * l.LineSize }

// Validate checks structural sanity: the order is a permutation, offsets
// respect alignment, and no two fields overlap.
func (l *Layout) Validate() error {
	if err := checkPermutation(l.Struct, l.Order); err != nil {
		return err
	}
	type span struct{ lo, hi, fi int }
	spans := make([]span, 0, len(l.Struct.Fields))
	for fi, f := range l.Struct.Fields {
		off := l.Offsets[fi]
		if off < 0 || off+f.Size > l.Size {
			return fmt.Errorf("layout %s: field %s at [%d,%d) outside size %d", l.Name, f.Name, off, off+f.Size, l.Size)
		}
		if off%f.Align != 0 {
			return fmt.Errorf("layout %s: field %s at %d violates alignment %d", l.Name, f.Name, off, f.Align)
		}
		spans = append(spans, span{off, off + f.Size, fi})
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("layout %s: fields %s and %s overlap",
				l.Name, l.Struct.Fields[spans[i-1].fi].Name, l.Struct.Fields[spans[i].fi].Name)
		}
	}
	return nil
}

// PaddingBytes returns the bytes lost to padding.
func (l *Layout) PaddingBytes() int { return l.Size - l.Struct.MinBytes() }

// Dump renders the layout line by line.
func (l *Layout) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "layout %s of struct %s: %d bytes, %d lines, %d padding\n",
		l.Name, l.Struct.Name, l.Size, l.NumLines(), l.PaddingBytes())
	curLine := -1
	for _, fi := range l.Order {
		f := l.Struct.Fields[fi]
		if line := l.LineOf(fi); line != curLine {
			curLine = line
			fmt.Fprintf(&b, "  -- line %d --\n", curLine)
		}
		fmt.Fprintf(&b, "  %4d  %-24s size=%d\n", l.Offsets[fi], f.Name, f.Size)
	}
	return b.String()
}

func clusterBytes(st *ir.StructType, c []int) int {
	end := 0
	for _, fi := range c {
		end = align(end, st.Fields[fi].Align) + st.Fields[fi].Size
	}
	return end
}

func checkPermutation(st *ir.StructType, order []int) error {
	if len(order) != len(st.Fields) {
		return fmt.Errorf("layout: order has %d entries for %d fields", len(order), len(st.Fields))
	}
	seen := make([]bool, len(st.Fields))
	for _, fi := range order {
		if fi < 0 || fi >= len(st.Fields) {
			return fmt.Errorf("layout: field index %d out of range", fi)
		}
		if seen[fi] {
			return fmt.Errorf("layout: field index %d repeated", fi)
		}
		seen[fi] = true
	}
	return nil
}

func align(off, a int) int { return (off + a - 1) / a * a }
