// Package d is the top of the diamond d→{b,e}→c.
package d

import (
	"localmod/b"
	"localmod/e"
)

// Both interleaves the two imported structs with fields that different
// goroutines write.
type Both struct {
	x int64
	p b.Pair
	y int64
	w e.Wide
	z int64
}

var both Both

// Run writes x, y and z from three goroutines.
func Run() {
	go func() { both.x++ }()
	go func() { both.y++ }()
	go func() { both.z++ }()
}
