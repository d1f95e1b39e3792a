// Package nested is a module of its own inside localmod.
package nested

// Big is 26 bytes, 2-byte aligned.
type Big struct {
	buf [24]byte
	n   int16
}
