// Package b imports c, and is imported by a (the chain a→b→c) and by d
// (one side of the diamond d→{b,e}→c).
package b

import "localmod/c"

// Pair is 16 bytes: a 12-byte Counter and an int16, 4-byte aligned.
type Pair struct {
	X c.Counter
	Y int16
}

// S puts a Counter between two fields that different goroutines write.
type S struct {
	hot  int64
	t    c.Counter
	cold int64
}

var s S

// Run writes hot and cold from two goroutines.
func Run() {
	go func() { s.hot++ }()
	go func() { s.cold++ }()
}
