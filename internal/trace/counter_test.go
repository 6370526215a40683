package trace

import (
	"sync"
	"testing"
)

// TestCounterSlotsSumExactly: handles adding on distinct PE slots and a
// by-name writer on the same names land in one total, which Count,
// Counters and Reset see exactly while the slots stay live.
func TestCounterSlotsSumExactly(t *testing.T) {
	const pes, adds = 4, 5000
	r := NewRecorder()
	msgs := r.Counter("msgs", 10, pes)
	bytes := r.Counter("bytes", 10, pes)
	run := func() {
		var wg sync.WaitGroup
		for pe := 10; pe < 10+pes; pe++ {
			wg.Add(1)
			go func(pe int) {
				defer wg.Done()
				for i := 0; i < adds; i++ {
					msgs.Add(pe, 1)
					bytes.Add(pe, 3)
				}
			}(pe)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				r.Incr("msgs", 1)
				r.Incr("bytes", 3)
				_ = r.Count("msgs") // a live read mid-run
			}
		}()
		wg.Wait()
	}
	want := map[string]int64{"msgs": (pes + 1) * adds, "bytes": 3 * (pes + 1) * adds}
	check := func(when string) {
		t.Helper()
		got := r.Counters()
		if len(got) != len(want) {
			t.Fatalf("%s: Counters() = %v, want %v", when, got, want)
		}
		for n, v := range want {
			if got[n] != v || r.Count(n) != v {
				t.Fatalf("%s: %s = %d (Counters) / %d (Count), want %d", when, n, got[n], r.Count(n), v)
			}
		}
	}
	run()
	check("first run")
	r.Reset()
	if got := r.Counters(); len(got) != 0 || r.Count("msgs") != 0 {
		t.Fatalf("after Reset: Counters() = %v, Count(msgs) = %d", got, r.Count("msgs"))
	}
	run()
	check("after Reset")
}

// TestCounterNamesAsByName: a counter's name appears once it is updated —
// even by a zero delta, as a by-name Incr would make it — and never for a
// bare registration; a PE outside the handle's range still counts.
func TestCounterNamesAsByName(t *testing.T) {
	r := NewRecorder()
	idle := r.Counter("idle", 0, 2)
	zero := r.Counter("zero", 0, 2)
	wide := r.Counter("wide", 0, 2)
	zero.Add(1, 0)
	wide.Add(7, 5)
	wide.Add(-1, 1)
	got := r.Counters()
	if _, ok := got["idle"]; ok {
		t.Fatalf("registered-only counter listed: %v", got)
	}
	if v, ok := got["zero"]; !ok || v != 0 {
		t.Fatalf("zero-delta counter missing: %v", got)
	}
	if got["wide"] != 6 {
		t.Fatalf("out-of-range PEs: wide = %d, want 6", got["wide"])
	}
	r.SetEnabled(false)
	idle.Add(0, 1)
	if r.Count("idle") != 0 {
		t.Fatal("disabled recorder accumulated a handle update")
	}
	var nilRec *Recorder
	h := nilRec.Counter("x", 0, 2)
	h.Add(0, 1) // must not panic
}

// TestCounterAddZeroAllocs pins the hot-path promise: a handle update
// allocates nothing.
func TestCounterAddZeroAllocs(t *testing.T) {
	r := NewRecorder()
	c := r.Counter("ckd.puts", 0, 2)
	if a := testing.AllocsPerRun(1000, func() { c.Add(1, 1) }); a != 0 {
		t.Fatalf("Counter.Add allocates %.1f times per call, want 0", a)
	}
}

// BenchmarkCounterAdd2PE: two PEs updating their own slots of one
// counter, the load under which the by-name path's shared mutex bounces
// between cores (the benchmark's trace.incr_2g_ns).
func BenchmarkCounterAdd2PE(b *testing.B) {
	c := NewRecorder().Counter("charm.msgs", 0, 2)
	var wg sync.WaitGroup
	for pe := 0; pe < 2; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			for i := pe; i < b.N; i += 2 {
				c.Add(pe, 1)
			}
		}(pe)
	}
	wg.Wait()
}
