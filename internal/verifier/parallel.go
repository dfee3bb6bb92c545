package verifier

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bcf/internal/obs"
)

// Path exploration.
//
// The verifier explores pending branch paths from a work-stealing
// frontier drained by max(Config.ParallelPaths, 1) workers. The calling
// goroutine runs worker 0, so one worker is a plain LIFO loop on the
// calling goroutine: exactly the sequential DFS. Correctness at any
// worker count rests on three invariants:
//
//  1. Every branchItem carries a pathOrder, a coordinate in the order
//     the sequential DFS pops it. orderBefore compares two coordinates
//     without materializing the global order.
//  2. An explored-state entry prunes a walk only when the sequential DFS
//     would have consulted it there: the recorder runs no later than the
//     walk, and every walk of the recorder's subtree that runs earlier
//     has finished (see visibleTo). With one worker this always holds.
//  3. Workers never return an error early; they record (error, order)
//     candidates, and Verify reports the minimum-order candidate — the
//     error the sequential DFS would have hit first.
//
// Cloned states share nothing mutable across workers: VState.clone
// copies Stack's backing array and no other VState field is a reference;
// a pathNode is immutable once its walk moves past it (nodes come from a
// per-walk slab whose filled slots are never rewritten); and pushed
// branches get their own node.

// pathOrder locates a branch item in sequential DFS order. The k-th
// branch pushed during one walk gets seq k under that walk's coordinate;
// because the sequential DFS pops LIFO, a higher seq is explored
// *earlier* among siblings, and a child subtree is explored entirely
// before any earlier-pushed sibling.
type pathOrder struct {
	parent *pathOrder
	// next is the sibling forked right after this one. It is written by
	// the parent's walk and read only once that walk is done.
	next  *pathOrder
	depth int32
	seq   int32
	// open counts the unfinished walks in this coordinate's subtree: 1
	// for its own walk while running, plus one per direct child whose
	// subtree is still open. Zero means every descendant has finished.
	open atomic.Int32
	// done is set once this coordinate's own walk has finished.
	done atomic.Bool
}

// finish retires o's walk: it is done, its own count drops, and each
// subtree that thereby closes propagates the close to its parent.
func (o *pathOrder) finish() {
	o.done.Store(true)
	for o != nil && o.open.Add(-1) == 0 {
		o = o.parent
	}
}

// orderBefore reports whether the sequential DFS explores a no later
// than b. Equal coordinates compare true (a walk is "no later" than
// itself, which lets a walk see its own recorded prune entries on loop
// revisits).
func orderBefore(a, b *pathOrder) bool {
	sa, sb := int32(-1), int32(-1)
	for a.depth > b.depth {
		sa, a = a.seq, a.parent
	}
	for b.depth > a.depth {
		sb, b = b.seq, b.parent
	}
	for a != b {
		sa, sb = a.seq, b.seq
		a, b = a.parent, b.parent
	}
	if sa < 0 {
		return true // a is b, or an ancestor of b: explored first
	}
	if sb < 0 {
		return false // b is a strict ancestor of a
	}
	// Siblings under the common ancestor: the later-pushed child pops
	// first off the sequential LIFO stack.
	return sa > sb
}

// visibleTo reports whether an explored entry recorded by walk r may
// prune walk w: the sequential DFS runs r no later than w, and every
// walk of r's subtree that it runs before w has finished. A recorder
// outside w's ancestry needs its whole subtree closed. An ancestor
// needs, at each step of the chain from w up to it, the parent's own
// walk done and the children forked after the chain child closed, since
// those pop first. The rule also makes retraction race-free for every
// prune the sequential DFS would make: retractions come only from r's
// subtree, and all of it that runs before w has landed.
func visibleTo(r, w *pathOrder) bool {
	if r == w {
		return true
	}
	if !orderBefore(r, w) {
		return false
	}
	if r.open.Load() == 0 {
		return true
	}
	for c := w; c.depth > r.depth; c = c.parent {
		p := c.parent
		if !p.done.Load() {
			return false
		}
		for k := c.next; k != nil; k = k.next {
			if k.open.Load() != 0 {
				return false
			}
		}
		if p == r {
			return true
		}
	}
	return false
}

// candidate is a recorded path error plus where it sits in DFS order.
type candidate struct {
	err   error
	order *pathOrder
}

// recordCandidate keeps the minimum-order error seen so far.
func (v *Verifier) recordCandidate(err error, order *pathOrder) {
	for {
		cur := v.best.Load()
		if cur != nil && orderBefore(cur.order, order) {
			return
		}
		if v.best.CompareAndSwap(cur, &candidate{err: err, order: order}) {
			return
		}
	}
}

// outranked reports whether a candidate error ordered before order
// already exists, meaning the sequential DFS would have stopped before
// reaching this path: its outcome can no longer influence the result.
func (v *Verifier) outranked(order *pathOrder) bool {
	b := v.best.Load()
	return b != nil && orderBefore(b.order, order)
}

// frontier is the shared work pool: one LIFO deque per worker plus a
// steal path. A single mutex guards all deques — walks are orders of
// magnitude longer than a push/pop, so contention here is negligible and
// the simple invariants are easy to keep race-free.
type frontier struct {
	mu      sync.Mutex
	cond    sync.Cond
	deques  [][]branchItem
	pending int // queued + in-flight items; 0 after the root push means done
	queued  int
}

func newFrontier(workers int) *frontier {
	f := &frontier{deques: make([][]branchItem, workers)}
	f.cond.L = &f.mu
	return f
}

// push queues it on worker w's deque.
func (f *frontier) push(w int, it branchItem) {
	f.mu.Lock()
	f.deques[w] = append(f.deques[w], it)
	f.pending++
	f.queued++
	f.mu.Unlock()
	f.cond.Signal()
}

// pop returns the newest item of worker w's own deque (preserving DFS
// locality), or steals the *oldest* item of the fullest victim deque —
// the item closest to the DFS root, hence the largest untouched subtree.
// queued is the frontier size just before the pop. It blocks while the
// frontier is empty but work is still in flight, and returns ok=false
// once everything has drained.
func (f *frontier) pop(w int) (it branchItem, queued int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		queued = f.queued
		if d := f.deques[w]; len(d) > 0 {
			it = d[len(d)-1]
			d[len(d)-1] = branchItem{}
			f.deques[w] = d[:len(d)-1]
			f.queued--
			return it, queued, true
		}
		victim := -1
		for i := range f.deques {
			if len(f.deques[i]) > 0 && (victim < 0 || len(f.deques[i]) > len(f.deques[victim])) {
				victim = i
			}
		}
		if victim >= 0 {
			it = f.deques[victim][0]
			f.deques[victim][0] = branchItem{}
			f.deques[victim] = f.deques[victim][1:]
			f.queued--
			return it, queued, true
		}
		if f.pending == 0 {
			return branchItem{}, 0, false
		}
		f.cond.Wait()
	}
}

// done retires one in-flight item; the last retirement wakes all waiters
// so they observe completion.
func (f *frontier) done() {
	f.mu.Lock()
	f.pending--
	finished := f.pending == 0
	f.mu.Unlock()
	if finished {
		f.cond.Broadcast()
	}
}

// verifierWorkerTIDBase spaces path workers 1..N-1 away from the
// loader/kernel thread IDs in the Perfetto trace; worker 0 traces on the
// caller's thread.
const verifierWorkerTIDBase = 10

func (v *Verifier) pathWorker(f *frontier, w int) {
	tr := v.cfg.Trace
	if tr != nil && w > 0 {
		tr = tr.WithThread(verifierWorkerTIDBase+w, fmt.Sprintf("verifier worker %d", w))
	}
	push := func(it branchItem) { f.push(w, it) }
	for {
		item, queued, ok := f.pop(w)
		if !ok {
			return
		}
		if v.budgetHit.Load() || v.outranked(item.order) {
			// The sequential DFS would have stopped, on the budget or on
			// an earlier error, before popping this item: drop it
			// unexplored (it forked no children, so retiring it closes
			// its subtree). After the budget trips no walk can charge an
			// instruction, so the drop loses nothing at any worker count.
			item.order.finish()
			f.done()
			continue
		}
		// PeakStackDepth counts walked pops only: with one worker, the
		// sequential DFS's stack depth before each pop.
		for p := v.peakFrontier.Load(); int64(queued) > p; p = v.peakFrontier.Load() {
			if v.peakFrontier.CompareAndSwap(p, int64(queued)) {
				break
			}
		}
		v.pathsExplored.Add(1)
		var err error
		if tr != nil {
			sp := tr.StartArgs(obs.CatVerifier, "path",
				map[string]any{"pc": item.pc, "depth": int(item.order.depth)})
			err = v.walk(item, push)
			sp.End()
		} else {
			err = v.walk(item, push)
		}
		if err != nil && err != v.budgetErr {
			v.recordCandidate(err, item.order)
		}
		item.order.finish()
		f.done()
	}
}
