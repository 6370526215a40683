package sim

import "fmt"

// EventFunc is the body of a scheduled event. It runs with the engine's
// clock set to the event's timestamp.
type EventFunc func()

// Event is a handle to a scheduled event. It can be cancelled before it
// fires. The zero value is not a valid event.
type Event struct {
	at        Time
	seq       uint64
	fn        EventFunc
	index     int // position in the heap, -1 when not queued
	cancelled bool
}

// At reports the virtual time at which the event is (or was) scheduled.
func (ev *Event) At() Time { return ev.at }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was actually pending.
func (ev *Event) Cancel() bool {
	if ev.cancelled || ev.index < 0 {
		return false
	}
	ev.cancelled = true
	return true
}

// Engine is a deterministic discrete-event simulator. All methods must be
// called from a single goroutine (typically: from inside event functions,
// or from the top-level driver before/after Run).
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stopped bool
	running bool

	// Executed counts events that have fired (excluding cancelled ones).
	executed uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are queued (including cancelled events
// that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run after delay d (relative to Now). A negative
// delay panics: causality violations are always bugs in this codebase.
func (e *Engine) Schedule(d Time, fn EventFunc) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// At queues fn to run at absolute virtual time t, which must not be in the
// past.
func (e *Engine) At(t Time, fn EventFunc) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := &Event{at: t, seq: e.seq, fn: fn, index: -1}
	e.seq++
	e.queue.push(ev)
	return ev
}

// Step fires the single next event. It reports false when the queue is
// empty or the engine has been stopped. Cancelled events are discarded
// without advancing the clock: a cancelled far-future timer (a retransmit
// timeout beaten by its ack, a watchdog disarmed by delivery) must not
// stretch the simulated run.
func (e *Engine) Step() bool {
	for {
		if e.stopped || len(e.queue) == 0 {
			return false
		}
		ev := e.queue.pop()
		if ev.cancelled {
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: event at %v behind clock %v", ev.at, e.now))
		}
		e.now = ev.at
		e.executed++
		ev.fn()
		return true
	}
}

// Run fires events until the queue drains or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
	return e.now
}

// Stop halts Run after the current event completes. The queue is
// left intact; Resume re-enables stepping.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears a previous Stop.
func (e *Engine) Resume() { e.stopped = false }
