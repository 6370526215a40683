package netrt

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/realrt"
)

// The shared-memory ring is an SPSC byte stream laid out inside a
// mapped segment both processes see:
//
//	offset   0: head (uint64, consumer-owned, free-running position)
//	offset  64: tail (uint64, producer-owned, free-running position)
//	offset 128: closed flag (uint64)
//	offset 136: dataWait, spaceWait (uint32 futex words, see below)
//	offset 152: putSeq (uint64, bumped by direct puts into the arena)
//	offset 192: data[capacity]  (capacity is a power of two)
//
// head and tail live on separate cache lines so the producer's store
// and the consumer's store never contend. Positions run free and are
// masked into the data array, so full (tail-head == capacity) and empty
// (tail-head == 0) are unambiguous without a wasted slot.
//
// The memory-ordering contract is the whole point: the producer copies
// frame bytes into data and THEN release-stores tail; the consumer
// acquire-loads tail and therefore observes the bytes the store
// published. Go's sync/atomic operations are sequentially consistent,
// which subsumes the release/acquire pairing. The race detector only
// sees the pairing when both ends name the same address, which two
// mappings of one memfd do not; race_on.go restates it on a word they
// share (released here, acquired in readLoop), so the in-process worlds
// the tests run stay warning-free. This is the same publish discipline
// the CkDirect sentinel itself uses (memcpy, then release-store the
// final word), applied to a byte stream.
//
// The two wait words at offsets 136 and 144 are the futex doorbell: a
// side that has yielded fruitlessly arms its word (1), re-checks the
// condition (both operations are seq-cst, so arm-then-check against the
// peer's publish-then-check-arm cannot BOTH miss), and futex-waits on
// it; the peer clears the word and wakes after publishing. Cross-
// process, so no FUTEX_PRIVATE_FLAG. On non-Linux hosts the stub wait
// degrades to a short sleep.
//
// putSeq carries no bytes: a direct put (shmLink.directPut) deposits into
// the arena and release-stores the sentinel there, then bumps the putSeq
// of the ring that flows the same way and wakes its reader only if the
// dataWait word is armed. The reader's only job with it is the wake: it
// counts putSeq as readiness and kicks the local PEs when it moves, so a
// receiver PE parked past its spin budget wakes into a full poll. A PE
// that is still spinning finds the sentinel itself.
//
// Who watches an inbound ring, and when (ringWatch):
//   - While a PE of the rank polls — it found no task and no arrival —
//     that PE watches: each idle pass reads the ring's tail and pokes the
//     reader, asleep on a Go channel, only when bytes wait past the head
//     it slept at. A direct put is found by the polling PE alone, as the
//     paper's scheduler finds it: the reader does not wake for it.
//   - While every PE of the rank is at work (a task, a put callback) and
//     none is parked, the reader sleeps on: the PEs poll again soon. Work
//     that outlasts a whole bounded wait (ringFutexWaitNS) with no PE
//     polling hands the ring back to the reader, so a busy rank still
//     reads its probes, job frames and registrations.
//   - Once no PE polls and one is parked or gone, the PE that made it so
//     hands the ring back (Node.wakeRingReaders) and the reader waits in
//     await's own loop, yielding for a budget and then arming the futex,
//     exactly as it did before PEs watched: a parked PE hears of its puts
//     only through the reader.
//
// On the 2-vCPU reference host, with the two readers and the two PEs of
// pp-shm-1k on two Ps, the first case took ckd p50 from 4.1 to 1.8 µs
// and msg p50 from 11.5 to 12.9 µs, the price of a poke per frame
// (DESIGN.md §12 has the other workloads).
//
// How long a waiter yields before it arms depends on whether the host has
// cores to yield on (ringYields). Where it has one for every ring reader
// and every thread of the world, the waiter yields ringSpinYields times
// (≈ 1–2 ms): long enough to cross a peer's compute phase, or the few
// hundred microseconds between two runs of a job stream, without arming —
// which would cost the peer a futex syscall per publish and this side a
// kernel wake plus a P retake per frame, once per exchange. Everywhere
// else a yield is a time slice taken from whoever will produce the
// awaited bytes, and the waiter keeps the short ringArmYields budget.
// Both sides are measured, on 2 cores. The benchmark's 2-rank in-process
// world (stencil-shm, 15 s): arming after 512 yields reads ckd p50
// 131–134 µs and msg p99 570–600 µs (the parent, whose runs are 4 ms
// apart, 132–135 and 340–380), after 8192 108–115 and 360–390; a
// serve-shm job 1.66 vs 1.36 ms. The same stencil between 2 rank
// processes of 2 threads each: 26–35 µs an iteration after 512, 51–74
// after 8192; between 8 rank processes 5.4–6.6 ms against 26–29 ms; and a
// 4-rank in-process job stream does 141 jobs/s against 52. Either
// way a link that stays quiet gives its core back, and the escalating
// futex timeout keeps it there, so the hundreds of idle ring ends of a
// large world cost nothing.
const (
	shmRingHdrBytes = 192
	shmHeadOff      = 0
	shmTailOff      = 64
	shmClosedOff    = 128
	shmDataWaitOff  = 136
	shmSpaceWaitOff = 144
	shmPutSeqOff    = 152
	ringArmYields   = 512             // yields before arming the futex
	ringSpinYields  = 8192            // the same, where the host has the cores (ringYields)
	ringFutexWaitNS = 2 * 1000 * 1000 // first bounded wait: re-check down/closed at 2ms
	// ringFutexWaitMaxNS caps the exponential escalation of the bounded
	// wait while nothing arrives. The timeout is only a liveness
	// fallback — real traffic wakes the futex explicitly — but a parked
	// waiter that re-arms every 2ms forever is a 500 Hz kernel timer per
	// ring direction, and a 64-rank in-process world holds hundreds of
	// idle ring ends: at 2ms flat their timer wakeups alone saturate a
	// small host and starve the application (observed as a whole-world
	// no-progress stall at 64 ranks on one CPU). Escalating 2ms → 256ms
	// keeps wake latency exact for active links and bounds a dead
	// peer's detection latency, while an idle link costs ~4 syscalls/s.
	ringFutexWaitMaxNS = 256 * 1000 * 1000
)

// shmRing wires the header atomics and data window of one direction of
// a shared segment. Both processes build their own shmRing over their
// own mapping of the same pages.
type shmRing struct {
	head      *atomicU64Ptr
	tail      *atomicU64Ptr
	closed    *atomicU64Ptr
	dataWait  *atomicU32Ptr // armed by a consumer out of bytes
	spaceWait *atomicU32Ptr // armed by a producer out of space
	putSeq    *atomicU64Ptr // bumped by every direct put this way
	data      []byte
	mask      uint64

	// yields is how many times a waiter yields before it arms its word:
	// ringArmYields unless the owning node found the cores (ringYields).
	yields int

	// yielded counts the yields await has made on this ring end, a
	// reader's or a producer's (the tests read it).
	yielded atomic.Int64

	// putsHandled is the putSeq up to which every direct put has been
	// found by a PE or kicked for: the ring's reader kicks only past it.
	// A PE that parks or exits with none left polling moves it to the
	// putSeq it read before its last full poll (Node.handlePuts), so the
	// reader it hands the ring to does not wake it for puts that poll
	// found. A value stored late (older than one already there) costs a
	// spare kick, never a lost one. Process-local, like yields.
	putsHandled atomic.Uint64
}

// atomicU64Ptr is an atomic word living inside the mapped segment (not
// Go heap memory), accessed through unsafe pointer casts. A named type
// keeps the casts in one place.
type atomicU64Ptr struct{ v uint64 }

func (a *atomicU64Ptr) load() uint64   { return atomic.LoadUint64(&a.v) }
func (a *atomicU64Ptr) store(x uint64) { atomic.StoreUint64(&a.v, x) }
func (a *atomicU64Ptr) add(d uint64)   { atomic.AddUint64(&a.v, d) }

// atomicU32Ptr is the 32-bit variant — futex words are 32 bits.
type atomicU32Ptr struct{ v uint32 }

func (a *atomicU32Ptr) load() uint32   { return atomic.LoadUint32(&a.v) }
func (a *atomicU32Ptr) store(x uint32) { atomic.StoreUint32(&a.v, x) }

// newShmRing overlays a ring on region, whose length must be
// shmRingHdrBytes plus a power-of-two capacity and whose base must be
// 8-byte aligned (mmap returns page-aligned memory; the heap slices the
// unit tests use are checked here).
func newShmRing(region []byte) (*shmRing, error) {
	if len(region) <= shmRingHdrBytes {
		return nil, fmt.Errorf("netrt: shm ring region of %d bytes is too small", len(region))
	}
	capacity := len(region) - shmRingHdrBytes
	if capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("netrt: shm ring capacity %d is not a power of two", capacity)
	}
	if uintptr(unsafe.Pointer(&region[0]))%8 != 0 {
		return nil, fmt.Errorf("netrt: shm ring region is not 8-byte aligned")
	}
	return &shmRing{
		head:      (*atomicU64Ptr)(unsafe.Pointer(&region[shmHeadOff])),
		tail:      (*atomicU64Ptr)(unsafe.Pointer(&region[shmTailOff])),
		closed:    (*atomicU64Ptr)(unsafe.Pointer(&region[shmClosedOff])),
		dataWait:  (*atomicU32Ptr)(unsafe.Pointer(&region[shmDataWaitOff])),
		spaceWait: (*atomicU32Ptr)(unsafe.Pointer(&region[shmSpaceWaitOff])),
		putSeq:    (*atomicU64Ptr)(unsafe.Pointer(&region[shmPutSeqOff])),
		data:      region[shmRingHdrBytes:],
		mask:      uint64(capacity - 1),
		yields:    ringArmYields,
	}, nil
}

// ringYields is the yield budget of a rank's ring waiters: the long one
// only if the host has a core for every ring reader the world can have
// (world-1 per rank) and for every OS thread its procs processes can run
// (threads each) — see the top of the file. Both counts take the whole
// world to be on this host, which errs short.
func ringYields(world, procs, threads, cores int) int {
	if world*(world-1) <= cores && procs*threads <= cores {
		return ringSpinYields
	}
	return ringArmYields
}

// close raises the closed flag and kicks both doorbells so a peer
// parked in a futex wait notices immediately instead of at its timeout.
func (r *shmRing) close() {
	r.closed.store(1)
	r.dataWait.store(0)
	futexWake(&r.dataWait.v)
	r.spaceWait.store(0)
	futexWake(&r.spaceWait.v)
}

// await is the ring's one wait loop, shared by a consumer out of bytes
// (word = dataWait) and a producer out of space (word = spaceWait): yield
// until ready() holds, arming word and parking in the futex once the
// r.yields budget is spent. The peer clears the word and wakes
// after every publish while it is armed; the bounded futex wait re-checks
// closed/down, so a dead peer that never wakes us still surfaces within
// the timeout. False means the link died (down closed, or the ring's
// closed flag set) with ready() still false.
//
// A link that died is checked for readiness once more before await gives
// up: the peer publishes its last frames and only then says goodbye on
// TCP (or raises the closed flag), so bytes it published can become
// visible between a failed ready() and the look at down. The serve
// shutdown announce is such a frame — lost, it leaves a follower waiting
// for ever.
func (r *shmRing) await(word *atomicU32Ptr, ready func() bool, down <-chan struct{}, w *ringWatch) bool {
	spins, waitNS := 0, int64(ringFutexWaitNS)
	for {
		if ready() {
			return true
		}
		if r.closed.load() != 0 {
			return ready()
		}
		select {
		case <-down:
			return ready()
		default:
		}
		if w.watched() {
			w.sleep(r, ready, down)
			spins, waitNS = 0, ringFutexWaitNS
			continue
		}
		if spins < r.yields {
			// Every iteration yields: on a host with fewer cores than
			// goroutines a raw spin would starve the very goroutine that
			// will produce (or consume) the bytes being waited for.
			spins++
			r.yielded.Add(1)
			runtime.Gosched()
			continue
		}
		word.store(1)
		if ready() || r.closed.load() != 0 {
			continue
		}
		futexWait(&word.v, 1, waitNS)
		if waitNS < ringFutexWaitMaxNS {
			waitNS *= 2
		}
	}
}

// write copies all of b into the ring, blocking (in await) while the
// ring is full. Writes larger than the ring capacity stream through in
// chunks as the consumer drains — a 64 MiB rendezvous body crosses a
// 1 MiB ring fine. It returns false when the link died (down closed or
// the ring's closed flag set) before the last byte was accepted; the
// frame is then dropped, which is correct because the only paths that
// close a link are already aborting or tearing down the run.
func (r *shmRing) write(b []byte, down <-chan struct{}) bool {
	for len(b) > 0 {
		tail := r.tail.load()
		space := uint64(len(r.data)) - (tail - r.head.load())
		if space == 0 {
			if !r.await(r.spaceWait, func() bool { return tail-r.head.load() < uint64(len(r.data)) }, down, nil) {
				return false
			}
			continue
		}
		n := len(b)
		if uint64(n) > space {
			n = int(space)
		}
		idx := tail & r.mask
		c := copy(r.data[idx:], b[:n])
		if c < n {
			copy(r.data, b[c:n])
		}
		raceWirePublish()
		r.tail.store(tail + uint64(n))
		r.wakeReader()
		b = b[n:]
	}
	return true
}

// publishPut announces a direct put already visible in the arena: bump
// putSeq, then wake the reader if it armed its word. Arm-then-check on
// the reader's side against bump-then-check-arm here is the same
// can't-both-miss pairing as a ring publish.
func (r *shmRing) publishPut() {
	r.putSeq.add(1)
	r.wakeReader()
}

// wakeReader clears and wakes the consumer's futex word if it is armed.
func (r *shmRing) wakeReader() {
	if r.dataWait.load() != 0 {
		r.dataWait.store(0)
		futexWake(&r.dataWait.v)
	}
}

// shmRingReader adapts the consumer side to io.Reader so the exact
// same bufio-fed frame loop that serves a TCP socket serves the ring —
// byte-identical dispatch across transports by construction. A read
// blocks (in await) until at least one byte is available, and reports
// io.EOF only once the link is down or closed AND the ring is drained:
// every byte the peer published before its goodbye is still read.
//
// Every Read, and every readiness test while it waits, also looks at the
// ring's putSeq: when it moved past the puts already handled, a direct put
// landed in the arena and onPut (when set) kicks the receiving PEs.
//
// watch, when set, is the link's ringWatch: while the rank's PEs watch the
// ring, the reader waits on its channel instead of in await's own loop.
type shmRingReader struct {
	ring  *shmRing
	down  <-chan struct{}
	onPut func()
	watch *ringWatch
}

func (rr *shmRingReader) Read(p []byte) (int, error) {
	r := rr.ring
	handled := &r.putsHandled
	for {
		if s := r.putSeq.load(); s != handled.Load() {
			handled.Store(s)
			if rr.onPut != nil {
				rr.onPut()
			}
		}
		head := r.head.load()
		avail := r.tail.load() - head
		if avail == 0 {
			if !r.await(r.dataWait, func() bool { return r.tail.load() != head || r.putSeq.load() != handled.Load() }, rr.down, rr.watch) {
				return 0, io.EOF
			}
			continue
		}
		n := len(p)
		if uint64(n) > avail {
			n = int(avail)
		}
		idx := head & r.mask
		c := copy(p[:n], r.data[idx:])
		if c < n {
			copy(p[c:n], r.data)
		}
		r.head.store(head + uint64(n))
		if r.spaceWait.load() != 0 {
			r.spaceWait.store(0)
			futexWake(&r.spaceWait.v)
		}
		return n, nil
	}
}

// ringWatch hands the watch of one inbound ring between its reader and
// the rank's PEs. While some PE polls — or every PE is at work and none
// is parked — the reader sleeps on wake instead of yielding beside them:
// a polling PE's idle pass (Node.watchRings) pokes it once the ring holds
// bytes past the head it slept at, and a PE at work comes back to poll
// soon. When no PE polls while one is parked or gone, the PE that made it
// so pokes every reader (Node.wakeRingReaders) back into await's own
// spin-then-futex loop: a parked PE hears of a direct put only through
// its reader. Work that outlasts a whole bounded wait (ringFutexWaitNS)
// with no PE polling hands the ring back too (takeover), so a rank busy
// in a long task or put callback still reads its probes and frames.
//
// sleepAt is the handshake word: head+1 while the reader sleeps (or is
// about to), 0 otherwise. The reader publishes it and then re-checks
// readiness and the PE states; a poller reads the ring tail after
// sleepAt, and a vacating PE updates the PE states before it reads
// sleepAt. All are sequentially consistent, so one side always sees the
// other. Whoever swaps sleepAt back to 0 owns the wake, so the channel
// holds at most one token, and a reader whose own swap is beaten takes
// that token.
type ringWatch struct {
	sleepAt atomic.Uint64
	wake    chan struct{} // capacity 1

	// pes reads the PE states of the attached run; false when no run is
	// attached. nil: nobody watches (a bare ring in a test).
	pes func() (realrt.PollState, bool)

	// Reader-owned: the bounded-wait timer, and whether the reader took
	// the ring back from PEs that stayed at work (it then sleeps again
	// only once a PE polls). The timer is re-armed only when it fires, so
	// a sleep costs no timer operation; an expiry that lands while the
	// reader is awake is read at its next sleep, as a look at the PEs
	// that only starts the takeover count.
	timer    *time.Timer
	takeover bool
}

// watched reports whether the rank's PEs watch the ring for the reader.
// A nil watch (a producer's wait) never does.
func (w *ringWatch) watched() bool {
	if w == nil || w.pes == nil {
		return false
	}
	s, ok := w.pes()
	return ok && (s.Polling > 0 || s.Parked == 0 && !w.takeover)
}

// sleep waits on the channel until a PE pokes the reader, the link goes
// down, or the rank's PEs stay at work for a whole bounded wait with
// none polling (takeover). It returns at once if ready() already holds,
// the ring closed, or the PEs no longer watch the ring.
func (w *ringWatch) sleep(r *shmRing, ready func() bool, down <-chan struct{}) {
	at := r.head.load() + 1
	w.sleepAt.Store(at)
	if ready() || r.closed.load() != 0 || !w.watched() {
		w.unsleep(at)
		return
	}
	w.takeover = false
	if w.timer == nil {
		w.timer = time.NewTimer(ringFutexWaitNS)
	}
	var busy uint32
	atWork := false
	for {
		select {
		case <-w.wake:
			return
		case <-down:
			w.unsleep(at)
			return
		case <-w.timer.C:
			w.timer.Reset(ringFutexWaitNS)
		}
		s, ok := w.pes()
		switch {
		case !ok || r.closed.load() != 0:
			w.unsleep(at)
			return
		case s.Polling > 0:
			atWork = false
		case atWork && s.Leaves == busy:
			// No PE has polled since the last expiry, a whole wait ago,
			// and none polls now: they have been at work all along.
			w.takeover = true
			w.unsleep(at)
			return
		default:
			busy, atWork = s.Leaves, true
		}
	}
}

// unsleep takes the reader's own sleep back; if a poker got there first,
// its token is on the way and is taken here.
func (w *ringWatch) unsleep(at uint64) {
	if !w.sleepAt.CompareAndSwap(at, 0) {
		<-w.wake
	}
}

// poke wakes the reader if it sleeps.
func (w *ringWatch) poke() {
	if at := w.sleepAt.Load(); at != 0 && w.sleepAt.CompareAndSwap(at, 0) {
		w.wake <- struct{}{}
	}
}
