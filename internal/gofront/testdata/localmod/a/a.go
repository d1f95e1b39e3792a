// Package a is the head of the chain a→b→c.
package a

import "localmod/b"

// Stats puts b's Pair between two fields that different goroutines write.
type Stats struct {
	runs  int64
	last  b.Pair
	fails int64
}

var st Stats

// Run writes runs and fails from two goroutines.
func Run() {
	go func() { st.runs++ }()
	go func() { st.fails++ }()
}
