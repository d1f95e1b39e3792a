package exec

import (
	"fmt"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
)

// key packs a thread's (time, id) into its single-compare scheduling key.
func (r *Runner) key(t *thread) int64 {
	return t.time<<r.idShift | int64(t.id)
}

// run executes the threads to completion.
//
// Scheduling invariant: a shared operation (a field or region access, a
// lock or an unlock) executes only when its thread's pre-op (time, id) is
// the lexicographic minimum over the runnable threads — with one exception,
// below. Non-shared operations (compute, calls, control bookkeeping) never
// yield — they are invisible to other threads, so executing them past the
// limit commutes with everything. The exception is a read hit no other CPU
// can disturb (readAhead): a single-line field read of a line resident in
// the thread's cache that no other CPU ever writes. Its outcome is the same
// at any position in the global order and it changes nothing another thread
// observes, so runs without a collector execute it past the limit instead
// of paying a scheduler round. The order of the remaining shared operations
// is therefore a pure function of the threads' virtual-time trajectories,
// independent of how far each turn runs, and every statistic matches the
// one-op-per-turn reference interpreter's (reference_test.go).
func (r *Runner) run() error {
	q := make(tq, 0, len(r.threads))
	for _, t := range r.threads {
		q.push(r.key(t), t)
	}
	parked := 0
	for len(q) > 0 {
		r.rounds++
		t := q[0].t
		limit := int64(1<<63 - 1)
		if len(q) > 1 {
			// The limit is the next-smallest key: the lesser child of the
			// heap root.
			limit = q[1].key
			if len(q) > 2 && q[2].key < limit {
				limit = q[2].key
			}
		}
		if err := r.runUntil(t, limit); err != nil {
			return err
		}
		if t.time >= r.timeCap {
			// Unreachable in practice (2^55 cycles for 128 threads); fail
			// loudly rather than let the packed key wrap.
			return fmt.Errorf("exec: thread %d virtual time %d exceeds scheduler cap %d", t.id, t.time, r.timeCap)
		}
		switch {
		case t.done:
			q.popRoot()
		case t.parked:
			q.popRoot()
			parked++
		default:
			q.syncRoot(r.key(t))
		}
		// Re-queue anything the turn released. runUntil returns the moment
		// a wake happens, so the next iteration's limit includes the woken
		// thread — without this, the running thread could race past it.
		for _, w := range r.woken {
			w.parked = false
			parked--
			q.push(r.key(w), w)
		}
		r.woken = r.woken[:0]
	}
	if parked > 0 {
		return fmt.Errorf("exec: deadlock: %d threads still parked", parked)
	}
	return nil
}

// readAhead runs a one-line field read for a thread past its turn when
// the result cannot depend on where the scheduler orders it, and reports
// whether it did; otherwise it changes nothing and the thread yields. It
// resolves the instance and address once, checks that no CPU other than
// the thread's own writes the line (markWriters), and completes the read
// from one cache probe (coherence.ReadHit), which hits exactly when the
// line is resident. Such a read hits wherever it is ordered: only a
// foreign write could remove the line (a CPU's cache fills and evictions
// come from its own thread, or from a lock handoff to that thread while it
// is parked); a foreign read's downgrade rewrites the state in place, and
// reads hit in any state; and moving the line to the MRU way commutes with
// other CPUs removing or downgrading other lines of the set. The read
// itself changes nothing another CPU sees: per-CPU hit counters, the
// field's statistics sums and this CPU's LRU order. A read whose instance
// does not resolve yields, to fail where the reference order fails.
func (r *Runner) readAhead(t *thread, in *decInstr) bool {
	a := in.arena
	idx, err := r.instIndex(t, a, in)
	if err != nil {
		return false
	}
	off := int64(idx)*a.stride + in.fieldOff
	if w := a.writers[off>>r.lineShift]; w != noWriter && w != int32(t.cpu) {
		return false
	}
	var res coherence.AccessResult
	if !r.coh.ReadHit(t.cpu, a.base+off, &res) {
		return false
	}
	t.time += res.Latency
	r.record(a, in.field, &res)
	return true
}

// markWriters fills every arena's line-writer table. Each thread is
// paired with every field write, lock and unlock of the program, reached
// or not, and marks the lines that instruction would write on its CPU;
// a loop-variable instance can be any instance, so it marks them all.
// Over-marking only costs run-ahead chances, never exactness. A lock
// handoff writes the lock word on the waiter's CPU, which the waiter's own
// lock instruction has marked.
func (r *Runner) markWriters() {
	for _, a := range r.arenaList {
		a.writers = make([]int32, a.count*int(a.stride>>r.lineShift))
		for i := range a.writers {
			a.writers[i] = noWriter
		}
	}
	for _, ds := range r.dec {
		for i := range ds {
			in := &ds[i]
			if !(in.op == ir.OpField && in.write || in.op == ir.OpLock || in.op == ir.OpUnlock) {
				continue
			}
			a := in.arena
			for _, t := range r.threads {
				if in.inst.Kind == ir.InstLoopVar {
					for idx := 0; idx < a.count; idx++ {
						r.markWrite(a, idx, in, t.cpu)
					}
					continue
				}
				if idx, err := r.instIndex(t, a, in); err == nil {
					r.markWrite(a, idx, in, t.cpu)
				}
			}
		}
	}
}

// markWrite records cpu as a writer of every line in's field covers in
// instance idx.
func (r *Runner) markWrite(a *arena, idx int, in *decInstr, cpu int) {
	off := int64(idx)*a.stride + in.fieldOff
	for l := off >> r.lineShift; l <= (off+int64(in.size)-1)>>r.lineShift; l++ {
		switch w := a.writers[l]; {
		case w == noWriter:
			a.writers[l] = int32(cpu)
		case w != int32(cpu):
			a.writers[l] = manyWriters
		}
	}
}

// tq is an inline binary min-heap on packed (time, id) keys. It replaces
// container/heap on the scheduler's hottest edge: the common transition
// "root ran, root's time grew" is one sift-down with no interface calls.
// The keys live inline in the heap entries — a 128-thread run's whole
// heap is a few cache lines of contiguous keys — so sifting never chases
// thread pointers; only the root's key is refreshed (syncRoot) after its
// thread runs. Binary beats higher arity here: the root's key typically
// grows only just past the lesser child (the scheduling limit), so sifts
// terminate after a level or two and wider nodes only add compares.
type tqEnt struct {
	key int64 // Runner.key(t): time<<idShift | id
	t   *thread
}

type tq []tqEnt

func (q *tq) push(key int64, t *thread) {
	*q = append(*q, tqEnt{key: key, t: t})
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[i].key >= h[p].key {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// syncRoot refreshes the root's key and restores heap order (the key can
// only have grown).
func (q tq) syncRoot(key int64) {
	q[0].key = key
	q.fixRoot()
}

// fixRoot restores heap order after the root's key increased. The sift
// moves a hole down and writes the displaced entry once at the end: after
// a long-latency miss the root sinks most of the way to the bottom, and
// the hole form does one entry store per level where a swap does three.
func (q tq) fixRoot() {
	n := len(q)
	if n < 2 {
		return
	}
	ent := q[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r].key < q[l].key {
			m = r
		}
		if q[m].key >= ent.key {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ent
}

func (q *tq) popRoot() {
	h := *q
	n := len(h) - 1
	h[0] = h[n]
	h[n] = tqEnt{}
	*q = h[:n]
	if n > 1 {
		(*q).fixRoot()
	}
}
