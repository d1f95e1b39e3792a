// Package e imports c: the other side of the diamond d→{b,e}→c.
package e

import "localmod/c"

// Wide is 20 bytes: a 12-byte Counter and five tag bytes, 4-byte
// aligned.
type Wide struct {
	C   c.Counter
	Tag [5]byte
}
