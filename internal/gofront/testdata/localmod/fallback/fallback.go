// Package fallback imports two paths the in-process resolver must leave
// to the source importer: a nested module's package and a local package
// that does not exist.
package fallback

import (
	"localmod/missing"
	"localmod/nested"
)

// Mixed puts both unresolvable types between fields that different
// goroutines write.
type Mixed struct {
	lo  int64
	big nested.Big
	gap missing.Gap
	hi  int64
}

var m Mixed

// Run writes lo and hi from two goroutines.
func Run() {
	go func() { m.lo++ }()
	go func() { m.hi++ }()
}
