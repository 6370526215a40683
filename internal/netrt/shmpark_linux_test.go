//go:build linux

package netrt

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// The ring waiters' park rule (shmRing.await): yield while a PE of the
// attached run is unparked, futex-park once none is or no run is
// attached. Linux only — elsewhere the futex is a sleep stub and the
// distinction these tests draw does not exist.

// TestShmReaderStaysHotWhilePEBusy: rank 1's PE is kept busy for 30 ms
// after a frame arrived — a traffic gap many times the reader's own
// yield budget. The reader serving that PE must not enter the futex once
// in that window, so the frame that ends the gap costs no kernel wake.
func TestShmReaderStaysHotWhilePEBusy(t *testing.T) {
	nodes := startWorld(t, 2)
	link := nodes[1].peerTable()[0].shm.Load()
	if link == nil {
		t.Skip("no shared-memory link on this host")
	}
	rts := newRuntimes(t, nodes)
	var parked atomic.Int64
	parked.Store(-1)
	rts[1].SetDeliver(func(e Env, pooled []byte) {
		bufpool.Put(pooled)
		rts[1].Enqueue(1, func() {
			before := link.in.parks.Load()
			for start := time.Now(); time.Since(start) < 30*time.Millisecond; {
				runtime.Gosched() // computing, as far as the scheduler can tell
			}
			parked.Store(link.in.parks.Load() - before)
		})
	})
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1})
	})
	runAll(rts)
	switch n := parked.Load(); {
	case n < 0:
		t.Fatal("the busy task never ran")
	case n > 0:
		t.Errorf("the ring reader entered the futex %d times while its PE was busy", n)
	}
}

// TestShmReaderParksOnceSchedulerDoes: a reader that was kept hot goes
// to the futex promptly once hot turns false (ringSpinYields more yields
// at most — it cannot spin on), and a publish still wakes it.
func TestShmReaderParksOnceSchedulerDoes(t *testing.T) {
	ring := testRing(t, 4096)
	var hot atomic.Bool
	hot.Store(true)
	ring.hot = hot.Load
	down := make(chan struct{})
	defer close(down)
	got := make(chan byte, 1)
	go func() {
		var b [1]byte
		if _, err := (&shmRingReader{ring: ring, down: down}).Read(b[:]); err == nil {
			got <- b[0]
		}
	}()
	time.Sleep(5 * time.Millisecond) // thousands of yields
	if n := ring.parks.Load(); n != 0 {
		t.Fatalf("reader entered the futex %d times while hot", n)
	}
	hot.Store(false)
	for deadline := time.Now().Add(5 * time.Second); ring.parks.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("reader never parked after the scheduler went idle")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !ring.write([]byte{42}, down) {
		t.Fatal("write failed on a live ring")
	}
	select {
	case b := <-got:
		if b != 42 {
			t.Fatalf("read %d, want 42", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked reader was not woken by the publish")
	}
}

// TestShmIdleWorldCostsNoCPU: a 16-rank in-process world with no run
// attached — 30 idle ring ends, as many keepalive tickers — must sit in
// the kernel, not in yield loops. This is the 64-rank idle-poller
// regression PR 10's flake hunt fixed; the budget is 5 % of one core.
func TestShmIdleWorldCostsNoCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("measures 500 ms of idleness")
	}
	startWorld(t, 16)
	// Let the readers run out their yields and the futex timeouts
	// escalate past the first few short waits.
	time.Sleep(300 * time.Millisecond)
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	const window = 500 * time.Millisecond
	before := cpu()
	time.Sleep(window)
	if used := cpu() - before; used > window/20 {
		t.Errorf("idle 16-rank world used %v of CPU in %v (over 5%% of a core)", used, window)
	}
}
