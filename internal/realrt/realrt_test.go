package realrt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestFIFOPerPE: tasks enqueued on one PE run in order on that PE.
func TestFIFOPerPE(t *testing.T) {
	rt := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		rt.Enqueue(0, func() { order = append(order, i) })
	}
	rt.Run()
	if len(order) != 100 {
		t.Fatalf("ran %d/100 tasks", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("task %d ran at position %d", v, i)
		}
	}
	if rt.Executed() != 100 {
		t.Fatalf("Executed() = %d, want 100", rt.Executed())
	}
}

// TestCrossPECascade: tasks spawning tasks on other PEs all complete
// before Run returns (the inc-before-visible credit discipline).
func TestCrossPECascade(t *testing.T) {
	const npes = 4
	rt := New(npes)
	var count atomic.Int64
	var spawn func(pe, depth int)
	spawn = func(pe, depth int) {
		count.Add(1)
		if depth == 0 {
			return
		}
		for d := 0; d < npes; d++ {
			d := d
			rt.Enqueue(d, func() { spawn(d, depth-1) })
		}
	}
	rt.Enqueue(0, func() { spawn(0, 3) })
	rt.Run()
	// 1 + 4 + 16 + 64 tasks.
	if got := count.Load(); got != 85 {
		t.Fatalf("ran %d tasks, want 85", got)
	}
}

// TestAfter: a timer fires its task and Run waits for it.
func TestAfter(t *testing.T) {
	rt := New(2)
	fired := false
	rt.Enqueue(0, func() {
		rt.After(1, sim.FromDuration(5*time.Millisecond), func() { fired = true })
	})
	rt.Run()
	if !fired {
		t.Fatal("timer task did not run before Run returned")
	}
}

// TestAfterTaskHoldsOnlyItsOwnCredit: a timer's task runs on the credit
// the timer took, so inside the task that credit is the only one out. A
// second credit would be the timer's, still outstanding when the task
// ran first, and it would send the PE into one more polling stretch and
// park after the task instead of ending the run. The chain fires with no
// delay, so the worker is often still spinning when the timer pushes.
func TestAfterTaskHoldsOnlyItsOwnCredit(t *testing.T) {
	const rounds = 2000
	rt := New(1)
	var seen []int64
	var next func()
	next = func() {
		seen = append(seen, rt.Outstanding())
		if len(seen) < rounds {
			rt.After(0, 0, next)
		}
	}
	rt.After(0, 0, next)
	rt.Run()
	if len(seen) != rounds {
		t.Fatalf("%d of %d timer tasks ran", len(seen), rounds)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("timer task %d saw %d credits outstanding, want 1 (its own)", i, n)
		}
	}
}

// TestPutCreditBlocksTermination: an issued-but-undetected put keeps the
// runtime alive until PutDetected, even with empty queues.
func TestPutCreditBlocksTermination(t *testing.T) {
	rt := New(2)
	var landed atomic.Bool
	detected := false
	rt.SetPoll(func(pe int, full bool) bool {
		if pe == 1 && landed.Load() && !detected {
			detected = true
			rt.PutDetected()
			return true
		}
		return false
	})
	rt.Enqueue(0, func() {
		rt.PutIssued()
		landed.Store(true) // "release-store": visible to PE 1's poll
	})
	start := time.Now()
	rt.Run()
	if !detected {
		t.Fatal("runtime terminated with an undetected put outstanding")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("detection took implausibly long")
	}
}

// TestStallWatchdog: outstanding work with no progress trips the watchdog
// instead of hanging forever. The test swaps the watchdog's panic for a
// hook (the panic lives on the watchdog goroutine, unrecoverable by
// design) and releases the stuck credit so Run can return.
func TestStallWatchdog(t *testing.T) {
	rt := New(1)
	rt.StallTimeout = 300 * time.Millisecond
	var stallMsg atomic.Value
	rt.onStall = func(msg string) {
		stallMsg.Store(msg)
		rt.PutDetected() // release the stuck credit so Run can exit
	}
	rt.Enqueue(0, func() {
		rt.PutIssued() // never detected: a sentinel collision in miniature
	})
	rt.Run()
	if stallMsg.Load() == nil {
		t.Fatal("expected the stall watchdog to fire")
	}
}

// TestMPSCHammer: NumCPU producer goroutines push tasks onto one PE's
// queue concurrently; every task must run, per-producer FIFO order must
// survive, and under -race the lock-free push/pop pair must be clean.
// A put credit holds the runtime open until the producers finish, so the
// consumer races live producers instead of draining a pre-filled queue.
func TestMPSCHammer(t *testing.T) {
	producers := runtime.NumCPU()
	if producers < 4 {
		producers = 4
	}
	perProducer := 5000
	if testing.Short() {
		perProducer = 1000
	}
	rt := New(1)
	rt.PutIssued() // keep the runtime alive while producers fill the queue
	type stamp struct{ producer, seq int }
	var order []stamp // consumer-only: tasks run on PE 0's single worker
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		p := p
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				i := i
				rt.Enqueue(0, func() { order = append(order, stamp{p, i}) })
			}
		}()
	}
	go func() {
		wg.Wait()
		rt.PutDetected()
	}()
	rt.Run()
	if len(order) != producers*perProducer {
		t.Fatalf("ran %d tasks, want %d", len(order), producers*perProducer)
	}
	next := make([]int, producers)
	for _, s := range order {
		if s.seq != next[s.producer] {
			t.Fatalf("producer %d: task %d ran before task %d", s.producer, s.seq, next[s.producer])
		}
		next[s.producer]++
	}
}

// TestParkedWorkersWake: a long quiet stretch parks every worker (the
// spin budget is a few hundred yields, far less than the timer delay);
// the timer's enqueue must kick the owning PE awake and termination must
// wake the rest — promptly, not via a stall timeout.
func TestParkedWorkersWake(t *testing.T) {
	rt := New(4)
	rt.StallTimeout = 10 * time.Second
	fired := false
	rt.Enqueue(0, func() {
		rt.After(3, sim.FromDuration(50*time.Millisecond), func() { fired = true })
	})
	start := time.Now()
	rt.Run()
	if !fired {
		t.Fatal("timer task did not run")
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("parked workers took %v to wake and finish", wall)
	}
}

// TestEnqueueOutOfRangePE: an invalid PE panics with a diagnostic BEFORE
// the work credit is taken — the runtime must still reach quiescence for
// a caller that recovers, rather than hanging on a leaked credit.
func TestEnqueueOutOfRangePE(t *testing.T) {
	rt := New(2)
	rt.StallTimeout = 2 * time.Second
	var stalled atomic.Bool
	rt.onStall = func(string) { stalled.Store(true) }
	for _, bad := range []int{-1, 2, 99} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Enqueue(%d) did not panic", bad)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "realrt: Enqueue on PE") {
					t.Fatalf("Enqueue(%d) panic lacks diagnostic: %v", bad, msg)
				}
			}()
			rt.Enqueue(bad, func() {})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("After on an invalid PE did not panic")
			}
		}()
		rt.After(7, sim.FromDuration(time.Millisecond), func() {})
	}()
	ran := false
	rt.Enqueue(1, func() { ran = true })
	rt.Run()
	if !ran {
		t.Fatal("valid task did not run after recovered panics")
	}
	if stalled.Load() {
		t.Fatal("leaked work credit: runtime stalled after recovered out-of-range panics")
	}
}

// TestNowMonotonic: Now moves forward across real work.
func TestNowMonotonic(t *testing.T) {
	rt := New(1)
	var t0, t1 sim.Time
	rt.Enqueue(0, func() { t0 = rt.Now() })
	rt.Enqueue(0, func() {
		time.Sleep(time.Millisecond)
		t1 = rt.Now()
	})
	end := rt.Run()
	if !(t0 <= t1 && t1 <= end) {
		t.Fatalf("non-monotonic times: %v, %v, end %v", t0, t1, end)
	}
	if end <= 0 {
		t.Fatalf("non-positive end time %v", end)
	}
}

// TestShmReaderPollState pins the PE states the distributed backend's shm
// ring readers wait on (PollState, SetPollerHooks), on one PE: a PE that
// finds nothing to do polls and runs the idle-pass hook each pass; a task
// or a put callback (Busy) ends its polling stretch without the vacate
// hook, because a PE at work comes back; a park counts it parked and runs
// vacate, and so does its exit.
//
// No clock drives the sequence. A standing hold keeps the runtime alive
// after the put; a helper goroutine waits for the park, then enqueues the
// task that wakes the PE and returns the hold, so the exit follows that
// task with no polling stretch between. (A timer would not do: After
// retires its own credit only after its task is queued, so under load
// the task can run first and the PE polls, and parks, once more while
// that credit is outstanding.)
func TestShmReaderPollState(t *testing.T) {
	rt := New(1)
	var passes, passesAtPark int
	var vacated []PollState
	rt.SetPollerHooks(func() bool { passes++; return true }, func() {
		if len(vacated) == 0 {
			passesAtPark = passes
		}
		vacated = append(vacated, rt.PollState())
	})
	var inTask, inCallback, inWake PollState
	armed := false
	rt.SetPoll(func(pe int, full bool) bool {
		if !armed || passes == 0 {
			return false
		}
		armed = false
		rt.Busy(pe)
		inCallback = rt.PollState()
		rt.PutDetected()
		return true
	})
	rt.Enqueue(0, func() {
		inTask = rt.PollState()
		rt.PutIssued()
		armed = true
	})
	rt.Hold()
	go func() {
		// Parked counts a park or an exit, and the hold rules out the
		// exit: this is the park that ends the second polling stretch.
		for rt.PollState().Parked == 0 {
			runtime.Gosched()
		}
		rt.Enqueue(0, func() {
			inWake = rt.PollState()
			rt.Release()
		})
	}()
	rt.Run()
	// Run returned, so the worker's writes are visible here.
	for _, c := range []struct {
		at        string
		got, want PollState
	}{
		{"a task", inTask, PollState{}},
		{"a put callback", inCallback, PollState{Leaves: 1}},
		{"the task that ends the park", inWake, PollState{Leaves: 2}},
	} {
		if c.got != c.want {
			t.Errorf("in %s: %+v, want %+v", c.at, c.got, c.want)
		}
	}
	// The park ends the second polling stretch; the exit ends none.
	want := []PollState{{Parked: 1, Leaves: 2}, {Parked: 1, Leaves: 2}}
	if fmt.Sprint(vacated) != fmt.Sprint(want) {
		t.Errorf("vacate saw %+v, want %+v (the park, then the exit)", vacated, want)
	}
	if passesAtPark < spinIters {
		t.Errorf("%d idle passes before the park, want at least %d", passesAtPark, spinIters)
	}
}

// TestPassHookFalseParksAfterOnePass: a pass hook that says spinning can
// find nothing parks the PE right after that pass. A driver waits for
// each park and wakes the PE with a task, so every idle stretch ends in a
// park, and each park (vacate runs at it) must follow exactly one pass;
// the exit, at quiescence, follows none. Counts only, no timing: a
// spurious wake (a sticky token) is one more stretch of one pass.
func TestPassHookFalseParksAfterOnePass(t *testing.T) {
	rt := New(1)
	var passes int
	var stretches []int // passes before each vacate, in order
	rt.SetPollerHooks(func() bool { passes++; return false }, func() {
		stretches = append(stretches, passes)
		passes = 0
	})
	const wakes = 20
	var ran atomic.Int64
	rt.Hold()
	go func() {
		for i := 0; i < wakes; i++ {
			for rt.PollState().Parked == 0 {
				runtime.Gosched()
			}
			rt.Enqueue(0, func() { ran.Add(1) })
			for ran.Load() <= int64(i) {
				runtime.Gosched()
			}
		}
		for rt.PollState().Parked == 0 {
			runtime.Gosched()
		}
		rt.Release()
	}()
	rt.Run()
	// Run returned, so the worker's writes are visible here.
	if len(stretches) < wakes+2 {
		t.Fatalf("%d vacates, want at least %d (a park per wake, one more before the release, the exit)", len(stretches), wakes+2)
	}
	parks, exit := stretches[:len(stretches)-1], stretches[len(stretches)-1]
	for i, p := range parks {
		if p != 1 {
			t.Errorf("park %d followed %d idle passes, want exactly 1", i, p)
		}
	}
	if exit != 0 {
		t.Errorf("the exit followed %d idle passes, want 0", exit)
	}
}
