package layout

// Equal reports whether two layouts place every field identically.
func (l *Layout) Equal(o *Layout) bool {
	if l.Struct != o.Struct || l.Size != o.Size {
		return false
	}
	for i := range l.Offsets {
		if l.Offsets[i] != o.Offsets[i] {
			return false
		}
	}
	return true
}
