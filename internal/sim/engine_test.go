package sim

import (
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	e.Schedule(5*Microsecond, func() { fired = e.Now() })
	e.Run()
	if fired != 5*Microsecond {
		t.Fatalf("event fired at %v, want 5us", fired)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("final clock %v, want 5us", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among equal timestamps)", i, got, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("At(past) did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNilEventFuncPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestCancelPreventsExecution(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel returned false for a pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Executed() != 0 {
		t.Fatalf("Executed = %d, want 0", e.Executed())
	}
}

func TestCancelledEventStillAdvancesNothing(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(10, func() {})
	ev.Cancel()
	e.Schedule(20, func() {})
	e.Run()
	if e.Now() != 20 {
		t.Fatalf("final clock %v, want 20", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	e.Resume()
	e.Run()
	if count != 10 {
		t.Fatalf("after Resume count = %d, want 10", count)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var log []Time
		var recur func(depth int)
		recur = func(depth int) {
			log = append(log, e.Now())
			if depth < 6 {
				e.Schedule(Time(depth*3+1), func() { recur(depth + 1) })
				e.Schedule(Time(depth*2+1), func() { recur(depth + 1) })
			}
		}
		e.Schedule(1, func() { recur(0) })
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
