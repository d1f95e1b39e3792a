// Package c is the leaf that every import chain in localmod reaches.
package c

// Counter is 12 bytes with 4-byte alignment: a field of this type sized
// by a failed import's 8/8 guess moves every padding computed around it.
type Counter struct {
	N, M, K int32
}
