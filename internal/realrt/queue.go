package realrt

import (
	"sync"
	"sync/atomic"
)

// This file is the scheduler's lock-free fast path: a Vyukov-style
// multi-producer single-consumer queue (any goroutine pushes, only the
// owning worker pops) and a futex-style notifier that lets an idle worker
// park on a channel and be woken in well under a microsecond by the next
// push or one-sided put — the mutex FIFO and blind 5–100µs sleep backoff
// this replaces were the dominant cost of small-message delivery on the
// real backend.

// qnode is one queued task. Nodes link from the consumer end toward the
// producer end; a node becomes reachable by the consumer only through the
// atomic next-store that completes its push, which is the happens-before
// edge that publishes the plain task field.
type qnode struct {
	next atomic.Pointer[qnode]
	task func()
}

// mpscQueue is Vyukov's non-intrusive MPSC queue. push is a single
// atomic exchange plus one atomic store (no CAS loop, no lock); pop is
// plain loads/stores on the consumer-owned tail plus atomic loads of the
// producer-shared links. The stub node lets an empty queue keep a valid
// tail without special cases.
type mpscQueue struct {
	head atomic.Pointer[qnode] // producer end: most recently pushed node
	tail *qnode                // consumer end: owned by the worker goroutine
	stub qnode
}

func newMPSC() *mpscQueue {
	q := &mpscQueue{}
	q.head.Store(&q.stub)
	q.tail = &q.stub
	return q
}

// qnodePool recycles queue nodes so a steady-state enqueue allocates
// nothing. A node is recyclable the moment pop detaches it: pop only
// advances past a node after observing its next link non-nil, which
// happens only after the pushing producer's link-store completed — so no
// producer still holds a detached node, and nothing ever writes it again
// until push reissues it.
var qnodePool = sync.Pool{New: func() interface{} { return new(qnode) }}

// push enqueues a task. Safe from any number of goroutines concurrently.
func (q *mpscQueue) push(task func()) {
	n := qnodePool.Get().(*qnode)
	n.task = task
	q.pushNode(n)
}

// recycle returns a detached node to the pool. The stub is queue-owned
// and never pooled.
func (q *mpscQueue) recycle(n *qnode) {
	if n != &q.stub {
		qnodePool.Put(n)
	}
}

func (q *mpscQueue) pushNode(n *qnode) {
	n.next.Store(nil)
	prev := q.head.Swap(n)
	// Between the swap and this store the queue is transiently broken at
	// prev; pop reports it as empty and the caller's post-push kick (sent
	// after this store) guarantees the consumer comes back for it.
	prev.next.Store(n)
}

// pop dequeues the oldest task, or returns nil when the queue is empty —
// or transiently inconsistent because a producer sits between its swap
// and its link-store; that producer's completion makes the task visible
// to the next pop. Single consumer only.
func (q *mpscQueue) pop() func() {
	tail := q.tail
	next := tail.next.Load()
	if tail == &q.stub {
		if next == nil {
			return nil
		}
		q.tail = next
		tail = next
		next = tail.next.Load()
	}
	if next != nil {
		q.tail = next
		task := tail.task
		tail.task = nil
		q.recycle(tail)
		return task
	}
	if tail != q.head.Load() {
		return nil // producer mid-push; retry on the next pass
	}
	// tail is the last node: re-home the stub behind it so tail can
	// advance past the final task.
	q.pushNode(&q.stub)
	next = tail.next.Load()
	if next != nil {
		q.tail = next
		task := tail.task
		tail.task = nil
		q.recycle(tail)
		return task
	}
	return nil
}

// empty reports whether the queue holds no runnable task. Consumer only.
// It is conservative in the direction parking needs: a completed push is
// always reported non-empty (the pushed node is head and cannot equal the
// consumed tail), and a producer mid-push also reads non-empty via the
// head mismatch — so a worker that observes empty after publishing its
// parked flag cannot strand a task (see notifier).
func (q *mpscQueue) empty() bool {
	t := q.tail
	return t.task == nil && t.next.Load() == nil && q.head.Load() == t
}

// notifier is the park/unpark protocol for one worker. The worker
// publishes parked=1, re-checks every wake source, then blocks on the
// token channel; a producer kicks after making its work visible. The
// sequentially-consistent ordering of the parked store/load against the
// work's own publication guarantees at least one side sees the other:
// either the producer observes parked=1 and deposits a token, or the
// worker's re-check observes the work and aborts the park. Tokens are
// sticky (capacity 1) so a kick that races a wakeup costs one spurious
// re-scan, never a lost wakeup.
type notifier struct {
	parked atomic.Int32
	ch     chan struct{}

	// polling says the worker counts in Runtime.pollers. Only the
	// worker's own goroutine touches it.
	polling bool
}

func newNotifier() *notifier {
	return &notifier{ch: make(chan struct{}, 1)}
}

// kick wakes the worker if it is parked (or about to park: it published
// the flag before its final re-check). Cheap when the worker is running —
// one atomic load, no channel traffic.
func (n *notifier) kick() {
	if n.parked.Load() != 0 {
		n.token()
	}
}

// token deposits the wake token unconditionally (termination broadcast).
func (n *notifier) token() {
	select {
	case n.ch <- struct{}{}:
	default:
	}
}
