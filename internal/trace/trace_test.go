package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCountersAccumulate(t *testing.T) {
	r := NewRecorder()
	r.Incr("msgs", 1)
	r.Incr("msgs", 2)
	r.Incr("puts", 5)
	if r.Count("msgs") != 3 {
		t.Fatalf("msgs = %d, want 3", r.Count("msgs"))
	}
	if r.Count("puts") != 5 {
		t.Fatalf("puts = %d, want 5", r.Count("puts"))
	}
	if r.Count("absent") != 0 {
		t.Fatal("absent counter should read 0")
	}
}

func TestTimesAccumulate(t *testing.T) {
	r := NewRecorder()
	r.AddTime("sched", 2*sim.Microsecond)
	r.AddTime("sched", 3*sim.Microsecond)
	if r.Time("sched") != 5*sim.Microsecond {
		t.Fatalf("sched = %v, want 5us", r.Time("sched"))
	}
}

func TestDisabledRecorderDropsUpdates(t *testing.T) {
	r := NewRecorder()
	r.SetEnabled(false)
	r.Incr("x", 1)
	r.AddTime("y", 1)
	if r.Count("x") != 0 || r.Time("y") != 0 {
		t.Fatal("disabled recorder accumulated state")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Incr("x", 1)
	r.AddTime("y", 1)
	if r.Count("x") != 0 || r.Time("y") != 0 {
		t.Fatal("nil recorder misbehaved")
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder()
	r.Incr("a", 1)
	r.AddTime("b", 1)
	r.Reset()
	if r.Count("a") != 0 || r.Time("b") != 0 {
		t.Fatal("Reset did not clear state")
	}
	r.Incr("a", 2)
	if r.Count("a") != 2 {
		t.Fatal("recorder unusable after Reset")
	}
}

func TestStringOutputSortedAndComplete(t *testing.T) {
	r := NewRecorder()
	r.Incr("zeta", 1)
	r.Incr("alpha", 2)
	r.AddTime("beta", sim.Microsecond)
	out := r.String()
	ia := strings.Index(out, "alpha")
	iz := strings.Index(out, "zeta")
	ib := strings.Index(out, "beta")
	if ia < 0 || iz < 0 || ib < 0 {
		t.Fatalf("missing entries in output:\n%s", out)
	}
	if ia > iz {
		t.Fatal("counters not sorted")
	}
}
