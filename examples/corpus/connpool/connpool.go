// Package connpool is a connection pool whose wait counter is bumped
// with an unguarded atomic on the same line as the lock word and the
// locked free/inuse state. Two workers share the primary pool; a third
// brings its own. Each worker locks the pool it was handed, so the lock
// word is write-shared with the counter and with the state it guards,
// while free and inuse, written only under the lock, may stay together.
package connpool

import (
	"sync"
	"sync/atomic"
)

// Pool packs the lock, the unguarded wait counter and the guarded state.
type Pool struct {
	mu    sync.Mutex
	waits int64
	free  int64
	inuse int64
}

var primary = Pool{free: 64}
var scratch = Pool{free: 8}

// Start launches two workers on the primary pool and one on scratch.
func Start() {
	go borrow(&primary)
	go borrow(&primary)
	go borrow(&scratch)
}

func borrow(p *Pool) {
	for n := 0; n < 2048; n++ {
		atomic.AddInt64(&p.waits, 1)
		p.mu.Lock()
		if p.free > 0 {
			p.free--
			p.inuse++
		}
		p.mu.Unlock()
	}
}
