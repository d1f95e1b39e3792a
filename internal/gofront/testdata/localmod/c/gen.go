//go:build ignore

// gen.go is excluded by its build constraint; importing c with it
// selected would redeclare Counter.
package c

type Counter struct {
	N int64
}
