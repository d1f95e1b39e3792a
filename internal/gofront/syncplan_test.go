package gofront

import (
	"strings"
	"testing"

	"structlayout/internal/irtext"
	"structlayout/internal/staticshare"
)

// lowered renders the lint's lowered program so tests can assert on the
// emitted sync statements.
func lowered(t *testing.T, rep *Report) string {
	t.Helper()
	if rep.Model == nil {
		t.Fatal("report carries no model")
	}
	return irtext.Format(rep.Model.File)
}

// TestWaitGroupJoinRefines pins the headline gofront refinement: a
// fan-out/join over a WaitGroup orders the parent's post-Wait writes
// after the workers, so the parent/worker field pair stops being a
// false-sharing finding.
func TestWaitGroupJoinRefines(t *testing.T) {
	rep := lintSrc(t, "wgjoin", `
package wgjoin

import "sync"

type State struct {
	a int64
	b int64
	total int64
}

var st State
var wg sync.WaitGroup

func Run() {
	wg.Add(2)
	go workerA()
	go workerB()
	wg.Wait()
	st.total = st.a + st.b
}

func workerA() {
	defer wg.Done()
	st.a = 1
}

func workerB() {
	defer wg.Done()
	st.b = 2
}
`)
	text := lowered(t, rep)
	for _, want := range []string{"spawn g0", "spawn g1", "join g0", "join g1"} {
		if !strings.Contains(text, want) {
			t.Errorf("lowered program missing %q:\n%s", want, text)
		}
	}
	// Workers run strictly in parallel with each other (a/b may falsely
	// share), but the parent's total never races with either.
	if !hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("worker/worker pair should still be flagged: %+v", rep.Findings)
	}
	for _, f := range rep.Findings {
		for _, field := range f.Fields {
			if field == "total" {
				t.Errorf("post-Wait field reached a finding despite the join: %+v", f)
			}
		}
	}
}

// TestChannelHandoffLintsClean pins the channel refinement end to end:
// a producer hands an item through an unbuffered channel and only the
// consumer writes afterwards, so the package lints clean instead of
// producing a false static-false-sharing finding.
func TestChannelHandoffLintsClean(t *testing.T) {
	rep := lintSrc(t, "handoff", `
package handoff

type Item struct {
	payload int64
	checksum int64
}

var item Item
var ready = make(chan struct{})

func Run() {
	go produce()
	go consume()
}

func produce() {
	item.payload = 42
	ready <- struct{}{}
}

func consume() {
	<-ready
	item.checksum = item.payload + 1
}
`)
	text := lowered(t, rep)
	for _, want := range []string{"send ch0", "recv ch0"} {
		if !strings.Contains(text, want) {
			t.Errorf("lowered program missing %q:\n%s", want, text)
		}
	}
	if len(rep.Findings) != 0 {
		t.Errorf("handoff package should lint clean, got: %+v", rep.Findings)
	}
}

// TestWaitGroupEscapeStaysFlat pins the conservative side: a WaitGroup
// passed to a helper can be Added/Doned out of sight, so no joins may
// be claimed and the post-Wait write stays a finding.
func TestWaitGroupEscapeStaysFlat(t *testing.T) {
	rep := lintSrc(t, "wgescape", `
package wgescape

import "sync"

type State struct {
	a int64
	total int64
}

var st State
var wg sync.WaitGroup

func Run() {
	wg.Add(1)
	go worker()
	hand(&wg)
	wg.Wait()
	st.total = st.a
}

func hand(w *sync.WaitGroup) {}

func worker() {
	defer wg.Done()
	st.a = 1
}
`)
	text := lowered(t, rep)
	if strings.Contains(text, "join ") {
		t.Errorf("escaping WaitGroup must not produce joins:\n%s", text)
	}
	if !hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("unjoined spawn should keep the finding: %+v", rep.Findings)
	}
}

// TestLoopSpawnStaysFlat pins that `go` in a loop keeps the flat
// spawnsPerLoopGo thread model — the DSL allows spawn statements only
// at the top level.
func TestLoopSpawnStaysFlat(t *testing.T) {
	rep := lintSrc(t, "loopgo", `
package loopgo

type S struct {
	a int64
	b int64
}

var g S

func Run() {
	for i := 0; i < 4; i++ {
		go worker()
	}
}

func worker() { g.a = 1 }
`)
	text := lowered(t, rep)
	if strings.Contains(text, "spawn ") {
		t.Errorf("loop spawn must stay flat:\n%s", text)
	}
	if len(rep.Model.File.Threads) != 3 {
		t.Errorf("got %d threads, want 3 (parent + spawnsPerLoopGo)", len(rep.Model.File.Threads))
	}
}

// TestClosedChannelStaysFlat pins that a channel with any use beyond
// one send and one receive (here: close) is not turned into a
// rendezvous edge — close lets the receive complete without a send.
func TestClosedChannelStaysFlat(t *testing.T) {
	rep := lintSrc(t, "closed", `
package closed

type S struct {
	a int64
	b int64
}

var g S
var done = make(chan struct{})

func Run() {
	go produce()
	go consume()
}

func produce() {
	g.a = 1
	close(done)
}

func consume() {
	<-done
	g.b = g.a
}
`)
	text := lowered(t, rep)
	if strings.Contains(text, "send ") || strings.Contains(text, "recv ") {
		t.Errorf("closed channel must not become a rendezvous edge:\n%s", text)
	}
	if !hasCode(rep.Findings, staticshare.CodeFalseSharing) {
		t.Errorf("close-signaled handoff must stay flagged (conservative): %+v", rep.Findings)
	}
}
