// Package realrt is the real-execution backend: it runs the message-driven
// programs of this repository on actual parallel hardware instead of the
// discrete-event simulator. Each simulated processing element becomes one
// goroutine running a message-driven scheduler loop; entry-method messages
// travel through per-PE lock-free MPSC queues, and CkDirect puts are
// performed as the paper's actual mechanism — a memcpy into the receiver's
// registered buffer followed by an atomic release-store of the sentinel
// word, detected by the receiver's scheduler loop with atomic acquire-loads
// and no locks or notifications.
//
// The scheduler fast path is lock-free end to end: pushes are a single
// atomic exchange on a Vyukov MPSC queue (see queue.go), pops are
// consumer-owned, and an idle worker spins briefly then parks on a per-PE
// notifier that the next Enqueue or one-sided put kicks — so an idle
// receiver wakes in nanoseconds instead of decaying into blind sleeps.
//
// Time under this backend is wall-clock time (sim.Time carries nanoseconds
// either way), so measured intervals are real host performance, not model
// output. Determinism is therefore NOT a property of this backend; the
// applications' validate modes are the cross-backend oracle instead (their
// final payloads must be byte-identical to a sim-backend run of the same
// configuration — see DESIGN.md).
//
// Termination uses the same inc-before-dec counting argument as the
// runtime's quiescence detector: a global work counter is incremented
// before any unit of work becomes visible (a queued task, a pending timer,
// an in-flight put) and decremented only after the unit completes (the task
// ran, the timer's task ran, the put's arrival callback finished). When the
// counter reads zero the system is globally quiescent; the worker that
// retires the last unit broadcasts a wake token to every parked peer and
// all workers exit.
package realrt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// spinIters bounds the cooperative-yield spin an idle worker performs
// before parking on its notifier. Long enough that a pingpong receiver
// rides out a one-way flight without ever parking; short enough that a
// genuinely idle PE stops burning its core within a few microseconds.
// The budget holds only while spinning can find something: an idle-pass
// hook (SetPollerHooks) that reports false parks the worker right after
// that pass, because every arrival it waits for then kicks the notifier
// and the spin could only delay the goroutine that delivers it.
const spinIters = 128

// Runtime executes tasks on one goroutine per PE.
type Runtime struct {
	npes  int
	start time.Time

	pes   []*mpscQueue
	notes []*notifier

	// work counts queued tasks + pending timers + undetected puts.
	// Incremented before the unit becomes visible, decremented after it
	// completes; zero means global quiescence.
	work atomic.Int64

	// holds counts the subset of work credits that are standing holds
	// (Hold/Release): credits that keep the scheduler from concluding
	// quiescence while work may still arrive from outside — the
	// distributed backend parks one for the whole run until the
	// termination protocol decides. A runtime whose only outstanding
	// credits are holds is waiting, not necessarily wedged, so the
	// stall watchdog gives that state a longer leash (see watch).
	holds atomic.Int64

	// executed counts completed scheduler tasks (the real-backend analogue
	// of the simulator's executed-event count).
	executed atomic.Uint64

	// progress ticks on every completed unit of work; the stall watchdog
	// panics when it stops moving while work remains.
	progress atomic.Uint64

	// poll, when installed (by the CkDirect manager), runs on a PE's
	// scheduler loop between tasks and reports whether it detected any
	// arrival. full requests a scan of every armed handle including the
	// demoted cold tier — the loop sets it before parking and right after
	// a wakeup so no arrival can hide behind tiering while the PE sleeps.
	poll func(pe int, full bool) bool

	// onIdle, when installed (by the distributed backend), runs each time
	// a retired unit leaves only standing holds outstanding — the edge at
	// which this runtime has nothing left to do but wait on the world.
	onIdle func()

	// pollers packs the PE states the distributed backend's shm ring
	// readers wait on (PollState): how many PEs are between work items —
	// found no task and no arrival on their last pass, and neither took
	// work nor parked since — how many are parked or exited, and how many
	// times a PE stopped polling. It is kept only when onPass is installed
	// (SetPollerHooks). onPass runs on each idle pass of a polling PE and
	// reports whether spinning can find anything; onVacate runs when the
	// readers must take their rings back: no PE polls any more while one
	// is parked or gone (see worker).
	pollers  atomic.Uint64
	onPass   func() bool
	onVacate func()

	// StallTimeout is how long the runtime tolerates outstanding work with
	// zero progress before panicking with a diagnostic (a real-backend
	// deadlock would otherwise spin forever). Zero means 30s.
	StallTimeout time.Duration

	// onStall replaces the watchdog's panic (tests only — the panic runs on
	// the watchdog goroutine, where no test can recover it).
	onStall func(msg string)

	running atomic.Bool

	// done latches the first observation of global quiescence, making it
	// terminal: every worker exits once it is set, even if the work
	// counter rises again afterwards. In a closed system the counter
	// never rises after zero, but the distributed backend is not closed
	// during an abort — connection readers of still-live peers can
	// deliver frames (and Enqueue tasks) after the hold credit's release
	// let the counter hit zero. Without the latch such a late Enqueue
	// lands on a worker that already returned, and the remaining workers
	// wedge forever on a credit nobody can retire.
	done atomic.Bool
}

// New builds a runtime for npes processing elements. The wall clock
// starts here; Now is measured from this instant.
func New(npes int) *Runtime {
	if npes <= 0 {
		panic("realrt: non-positive PE count")
	}
	rt := &Runtime{npes: npes, start: time.Now()}
	rt.pes = make([]*mpscQueue, npes)
	rt.notes = make([]*notifier, npes)
	for i := range rt.pes {
		rt.pes[i] = newMPSC()
		rt.notes[i] = newNotifier()
	}
	return rt
}

// NumPEs returns the PE count.
func (rt *Runtime) NumPEs() int { return rt.npes }

// Now returns wall-clock time elapsed since the runtime was built.
func (rt *Runtime) Now() sim.Time { return sim.FromDuration(time.Since(rt.start)) }

// Executed returns how many scheduler tasks have completed.
func (rt *Runtime) Executed() uint64 { return rt.executed.Load() }

// SetPoll installs the per-PE polling hook (the CkDirect sentinel scan).
// Must be called before Run.
func (rt *Runtime) SetPoll(fn func(pe int, full bool) bool) { rt.poll = fn }

// SetIdleHook installs the idle-edge hook: fn runs on whichever goroutine
// retires the unit of work that leaves only standing holds outstanding
// (see Hold). It must be cheap and must not block — a message-driven PE
// crosses this edge after every task it runs while waiting on a remote
// reply. A runtime with no hook installed pays one nil check per retired
// unit. Must be called before Run.
func (rt *Runtime) SetIdleHook(fn func()) { rt.onIdle = fn }

// Field units of Runtime.pollers: 20 bits of polling PEs, 20 of parked
// ones, and a 24-bit count of polling stretches ended, which wraps.
const (
	pollUnit  = 1
	parkUnit  = 1 << 20
	leaveUnit = 1 << 40
	unitMask  = 1<<20 - 1
)

// PollState is one consistent reading of the PE states (see pollers).
type PollState struct {
	Polling int    // PEs between work items
	Parked  int    // PEs parked or exited
	Leaves  uint32 // polling stretches ended so far (wraps)
}

// SetPollerHooks installs the ring-watch hooks (see pollers): pass runs
// on every idle pass of a PE between work items, on that PE's goroutine,
// and reports whether spinning on can find anything — false parks the PE
// right after that pass instead of yielding out the spinIters budget, so
// it must be false only when every arrival kicks the PE; vacate runs when
// no PE polls any more and one is parked or exited, on the PE that made it
// so, before that PE's last full poll. Both must be cheap and must not
// block. Must be called before Run.
func (rt *Runtime) SetPollerHooks(pass func() bool, vacate func()) {
	if rt.npes > unitMask {
		panic(fmt.Sprintf("realrt: %d PEs overflow the poller counts", rt.npes))
	}
	rt.onPass, rt.onVacate = pass, vacate
}

// PollState reads the PE states (all zero when no poller hooks are
// installed).
func (rt *Runtime) PollState() PollState {
	v := rt.pollers.Load()
	return PollState{Polling: int(v & unitMask), Parked: int(v >> 20 & unitMask), Leaves: uint32(v >> 40)}
}

// Busy tells the runtime that a PE's poll pass found an arrival and is
// about to run its callback: the PE stops polling until its next idle
// pass, as it does when it takes a task. Only the PE's own poll hook may
// call it.
func (rt *Runtime) Busy(pe int) {
	rt.checkPE(pe, "Busy")
	rt.stopPolling(pe, false)
}

// startPolling counts a PE that found nothing to do as polling and runs
// the idle-pass hook, returning its verdict: whether the PE should spin
// on. Without hooks it always should.
func (rt *Runtime) startPolling(pe int) bool {
	if rt.onPass == nil {
		return true
	}
	if n := rt.notes[pe]; !n.polling {
		n.polling = true
		rt.pollers.Add(pollUnit)
	}
	return rt.onPass()
}

// stopPolling ends a PE's polling stretch, if it is in one, and counts
// the PE parked (park: to park or exit) in the same step. The readers
// are handed their rings back when that leaves no PE polling while one
// is parked: a parked PE hears of a direct put only through its ring
// reader.
func (rt *Runtime) stopPolling(pe int, park bool) {
	if rt.onPass == nil {
		return
	}
	n := rt.notes[pe]
	var d uint64
	if park {
		d = parkUnit
	}
	if n.polling {
		n.polling = false
		d += leaveUnit - pollUnit
	} else if d == 0 {
		return
	}
	if v := rt.pollers.Add(d); v&unitMask == 0 && v>>20&unitMask != 0 {
		rt.onVacate()
	}
}

// unpark takes a PE back out of the parked count.
func (rt *Runtime) unpark() {
	if rt.onPass != nil {
		rt.pollers.Add(^uint64(parkUnit - 1))
	}
}

// checkPE validates a PE index before any state is touched, so a bad
// index cannot take a work credit it will never retire (which would wedge
// quiescence for any caller that recovers the panic).
func (rt *Runtime) checkPE(pe int, op string) {
	if pe < 0 || pe >= rt.npes {
		panic(fmt.Sprintf("realrt: %s on PE %d, runtime has PEs [0,%d)", op, pe, rt.npes))
	}
}

// Enqueue places a task on a PE's scheduler queue. Safe from any
// goroutine, before or during Run. The work credit is taken before the
// task becomes poppable so the termination check can never miss it; the
// kick follows the push so a parked worker is woken only once the task is
// reachable.
func (rt *Runtime) Enqueue(pe int, task func()) {
	rt.checkPE(pe, "Enqueue")
	rt.work.Add(1)
	rt.pes[pe].push(task)
	rt.notes[pe].kick()
}

// After runs task on a PE's scheduler queue once the wall-clock delay
// elapses. The timer takes a work credit now, so the runtime cannot
// terminate underneath it, and hands that credit to the task when it
// fires: the worker retires it after the task runs, as for any queued
// task, and no credit is outstanding once the task is done.
func (rt *Runtime) After(pe int, d sim.Time, task func()) {
	rt.checkPE(pe, "After")
	rt.work.Add(1)
	time.AfterFunc(d.Duration(), func() {
		rt.pes[pe].push(task)
		rt.notes[pe].kick()
	})
}

// PutIssued takes a work credit for an in-flight one-sided put. The put
// layer must call it before the sentinel release-store makes the payload
// visible; the credit is returned by PutDetected after the receiver's
// arrival callback completes. Holding the credit across the whole
// put-to-detection window is what makes work==0 imply that no payload is
// still sitting undetected in a receive buffer.
func (rt *Runtime) PutIssued() { rt.work.Add(1) }

// PutDetected returns the credit taken by PutIssued.
func (rt *Runtime) PutDetected() { rt.noteDone() }

// Hold takes a standing work credit: like PutIssued it keeps the
// scheduler from concluding quiescence, but it declares the credit a
// hold — work that is waited on, not work that is runnable here. The
// stall watchdog treats a runtime whose outstanding credits are all
// holds as waiting on the outside world and stretches its deadline
// (an idle rank in a long distributed run makes no local progress for
// the run's whole lifetime, and that is healthy). The distributed
// backend parks one hold per run until termination.
func (rt *Runtime) Hold() {
	rt.holds.Add(1)
	rt.work.Add(1)
}

// Release returns the credit taken by Hold.
func (rt *Runtime) Release() {
	rt.holds.Add(-1)
	rt.noteDone()
}

// Outstanding returns the current work-credit count (queued tasks,
// pending timers, undetected puts). The distributed backend reads it to
// report local idleness to the termination coordinator.
func (rt *Runtime) Outstanding() int64 { return rt.work.Load() }

// Kick wakes a PE's worker if it is parked. The put seam calls it after
// the sentinel release-store: the put itself is genuinely one-sided (no
// receiver involvement lands the bytes), the kick only shortcuts the
// receiver's park so detection costs nanoseconds instead of a sleep.
func (rt *Runtime) Kick(pe int) {
	rt.checkPE(pe, "Kick")
	rt.notes[pe].kick()
}

// noteDone retires one unit of work. The caller that retires the last
// unit broadcasts wake tokens so parked workers observe quiescence and
// exit.
func (rt *Runtime) noteDone() {
	rt.progress.Add(1)
	switch rem := rt.work.Add(-1); {
	case rem == 0:
		rt.wakeAll()
	case rem < 0:
		panic("realrt: work counter underflow")
	case rt.onIdle != nil && rem == rt.holds.Load():
		rt.onIdle()
	}
}

// wakeAll deposits a token at every PE (quiescence broadcast).
func (rt *Runtime) wakeAll() {
	for _, n := range rt.notes {
		n.token()
	}
}

// Run launches one worker goroutine per PE and blocks until global
// quiescence, returning the wall-clock time at exit. It may be called
// once.
func (rt *Runtime) Run() sim.Time {
	if !rt.running.CompareAndSwap(false, true) {
		panic("realrt: Run called twice")
	}
	var wg sync.WaitGroup
	wg.Add(rt.npes)
	for pe := 0; pe < rt.npes; pe++ {
		go rt.worker(pe, &wg)
	}
	done := make(chan struct{})
	go rt.watch(done)
	wg.Wait()
	close(done)
	return rt.Now()
}

// worker is one PE's scheduler loop: drain the queue, poll CkDirect
// channels, exit at global quiescence, otherwise spin briefly and park.
// The spin is cooperative yields so idle PEs do not starve busy ones on
// small hosts (GOMAXPROCS may be below the PE count); the park hands the
// core back entirely until the next Enqueue or put kicks the notifier.
//
// The spin runs only while the idle-pass hook says it can find something
// (SetPollerHooks). A yield puts the PE back on Go's global run queue, and
// Go polls the network only when that queue and the P's own are empty, so
// a PE that spins waiting for a socket delays the very reader goroutine
// it waits for. A distributed rank with no shm ring gets every arrival
// through a goroutine that enqueues or kicks, so its PEs park after one
// empty pass; a rank with a ring, and a runtime with no hooks, spin out
// the budget.
//
// Who watches a distributed rank's shm rings (poller hooks installed):
//   - A PE between work items polls, and each spin pass also looks at the
//     rings' tails (onPass): the ring readers sleep on a channel instead
//     of yielding beside it, so a direct put is found by this PE alone.
//   - A PE that takes a task or runs a put callback (Busy) stops polling
//     but, while no PE of the rank is parked, hands nothing back: it polls
//     again soon. A reader whose PEs stay at work for a whole bounded wait
//     takes its ring back by itself, so a long task or callback cannot
//     keep the termination probes unread.
//   - When no PE polls and one is parked or has exited, the PE that made
//     it so hands the rings back (onVacate), before its last full poll;
//     the readers then wait as they always have (spin, then futex) and
//     wake the parked PEs for their puts.
//
// On the 2-vCPU reference host this took pp-shm-1k ckd p50 from 4.1 to
// 1.8 µs: the readers no longer share the two Ps with the polling PEs.
func (rt *Runtime) worker(pe int, wg *sync.WaitGroup) {
	defer wg.Done()
	defer rt.stopPolling(pe, true)
	q := rt.pes[pe]
	spins := 0
	fullPoll := false
	for {
		if rt.done.Load() {
			return
		}
		if task := q.pop(); task != nil {
			rt.stopPolling(pe, false)
			task()
			rt.executed.Add(1)
			rt.noteDone()
			spins, fullPoll = 0, false
			continue
		}
		if rt.poll != nil && rt.poll(pe, fullPoll) {
			spins, fullPoll = 0, false
			continue
		}
		fullPoll = false
		if rt.work.Load() == 0 {
			rt.quiesce()
			return
		}
		spins++
		if rt.startPolling(pe) && spins < spinIters {
			runtime.Gosched()
			continue
		}
		rt.stopPolling(pe, true)
		rt.park(pe)
		rt.unpark()
		// Whatever woke us may live in the cold poll tier; scan everything
		// once before settling back into hot-only passes.
		spins, fullPoll = 0, true
	}
}

// quiesce latches terminal quiescence and broadcasts wake tokens so
// every parked peer observes it and exits.
func (rt *Runtime) quiesce() {
	if rt.done.CompareAndSwap(false, true) {
		rt.wakeAll()
	}
}

// park blocks the worker until a producer kicks its notifier. Publishing
// the parked flag first and then re-checking every wake source closes the
// missed-wakeup race: a producer that made work visible before observing
// the flag is seen by the re-check, and one that observed the flag
// deposits a token. The re-check's poll is a full scan so an arrival
// demoted to the cold tier cannot put the worker to sleep over it.
func (rt *Runtime) park(pe int) {
	n := rt.notes[pe]
	n.parked.Store(1)
	if !rt.pes[pe].empty() || (rt.poll != nil && rt.poll(pe, true)) || rt.work.Load() == 0 || rt.done.Load() {
		n.parked.Store(0)
		return
	}
	<-n.ch
	n.parked.Store(0)
}

// watch panics the process when outstanding work stops making progress —
// the real-backend analogue of a hung run, surfaced instead of spinning
// forever in CI. One reused ticker paces the checks for the whole run
// (a fresh time.After timer every tick leaked an allocation per 250ms).
func (rt *Runtime) watch(done <-chan struct{}) {
	timeout := rt.StallTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	const tick = 250 * time.Millisecond
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := rt.progress.Load()
	lastWork := rt.work.Load()
	stalled := time.Duration(0)
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		cur := rt.progress.Load()
		work := rt.work.Load()
		// Any movement counts as liveness: completed work (progress), or
		// a change in the outstanding count (new work arriving is a sign
		// of a live peer even before anything here completes).
		if cur != last || work != lastWork || work == 0 {
			last, lastWork = cur, work
			stalled = 0
			continue
		}
		stalled += tick
		// When everything outstanding is a standing hold, this runtime
		// has no runnable work at all — it is parked waiting for the
		// network (an idle rank of a big world, or a PE whose next halo
		// face is minutes away on an oversubscribed host). That state is
		// indistinguishable from a wedged termination protocol except by
		// duration, so it gets a stretched deadline rather than a pass.
		limit := timeout
		if work <= rt.holds.Load() {
			limit = 4 * timeout
		}
		if stalled >= limit {
			msg := fmt.Sprintf(
				"realrt: no progress for %v with %d work units outstanding, %d of them standing holds (%d tasks executed) — deadlocked run",
				limit, work, rt.holds.Load(), rt.executed.Load())
			if rt.onStall != nil {
				rt.onStall(msg)
				return
			}
			panic(msg)
		}
	}
}
