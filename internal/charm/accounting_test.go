package charm

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newLiveRTS builds a recorded runtime on a live backend (net needs node).
func newLiveRTS(pes int, be Backend, node *netrt.Node) (*RTS, *trace.Recorder) {
	eng := sim.NewEngine()
	mach, net := netmodel.AbeIB.BuildMachine(eng, pes)
	rec := trace.NewRecorder()
	return NewRTS(eng, mach, net, netmodel.AbeIB, rec, Options{Backend: be, Net: node}), rec
}

// otherPauses is how many stop-the-world pauses not caused by the GC the
// process has taken (ReadMemStats is one of their causes).
func otherPauses() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestRunAccountingDoesNotStopTheWorld: the mem.* / pool.* bracket around
// a live run reads runtime/metrics, so recorded runs — 50 empty real runs
// and 20 empty runs of a 2-rank net world — add no stop-the-world pause.
// With runtime.ReadMemStats each run added two per rank.
func TestRunAccountingDoesNotStopTheWorld(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)

	before := otherPauses()
	for i := 0; i < 50; i++ {
		rts, rec := newLiveRTS(2, RealBackend, nil)
		rts.Run()
		if _, ok := rec.Counters()[trace.CntMemAllocs]; !ok {
			t.Fatalf("real run %d recorded no %s", i, trace.CntMemAllocs)
		}
	}
	for i := 0; i < 20; i++ {
		var wg sync.WaitGroup
		for _, n := range nodes {
			rts, _ := newLiveRTS(2, NetBackend, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rts.Run()
				if errs := rts.Errors(); len(errs) > 0 {
					t.Errorf("net run %d: %v", i, errs)
				}
			}()
		}
		wg.Wait()
	}
	if got := otherPauses() - before; got != 0 {
		t.Fatalf("70 recorded runs took %d non-GC stop-the-world pauses, want 0", got)
	}
}

// TestRunMemCountersCount: a run that allocates K objects of 1 KiB on a PE
// reports them. Small-object counts reach runtime/metrics when a span
// leaves a P's cache, so without a GC a run's delta may miss the last
// span of the size class on each P (8 objects of 1 KiB); a GC inside the
// run flushes every cache, and the delta is then at least K exactly.
func TestRunMemCountersCount(t *testing.T) {
	const k = 4096
	keep := make([][]byte, k)
	allocRun := func(gc bool) map[string]int64 {
		rts, rec := newLiveRTS(2, RealBackend, nil)
		rts.StartAt(1, func(*Ctx) {
			for i := range keep {
				keep[i] = make([]byte, 1024)
			}
			if gc {
				runtime.GC()
			}
		})
		rts.Run()
		return rec.Counters()
	}

	slack := int64(8 * runtime.GOMAXPROCS(0))
	c := allocRun(false)
	if got := c[trace.CntMemAllocs]; got < k-slack {
		t.Errorf("no GC: %s = %d, want >= %d - %d", trace.CntMemAllocs, got, k, slack)
	}
	if got := c[trace.CntMemBytes]; got < (k-slack)*1024 {
		t.Errorf("no GC: %s = %d, want >= %d", trace.CntMemBytes, got, (k-slack)*1024)
	}

	c = allocRun(true)
	if got := c[trace.CntMemAllocs]; got < k {
		t.Errorf("with GC: %s = %d, want >= %d", trace.CntMemAllocs, got, k)
	}
	if got := c[trace.CntMemBytes]; got < k*1024 {
		t.Errorf("with GC: %s = %d, want >= %d", trace.CntMemBytes, got, k*1024)
	}
	if got := c[trace.CntMemGCs]; got < 1 {
		t.Errorf("with GC: %s = %d, want >= 1", trace.CntMemGCs, got)
	}
	if got := c[trace.CntMemGCPauseNS]; got <= 0 {
		t.Errorf("with GC: %s = %d, want > 0", trace.CntMemGCPauseNS, got)
	}
	runtime.KeepAlive(keep)
}
