package fieldmap

import "structlayout/internal/ir"

// At returns the accesses recorded for a source line.
func (f *File) At(line ir.SourceLine) []Entry { return f.Lines[line] }
