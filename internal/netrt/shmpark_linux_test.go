//go:build linux

package netrt

import (
	"io"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// The ring waiters' park rule (shmRing.await, ringYields): yield for a
// budget sized by whether the host has a core per ring reader, then park
// in the futex. Linux only — elsewhere the futex is a sleep stub and the
// distinction these tests draw does not exist.

// TestRingYieldsFitTheHost pins the sizing rule and that a node's links
// carry it: the long budget only where the host has a core for every ring
// reader and every thread of the world, the short one everywhere else — on
// 2 cores 8 rank processes ran 4.5x slower with the long one, 2 rank
// processes 1.6x slower, and a 4-rank in-process job stream 2x slower.
func TestRingYieldsFitTheHost(t *testing.T) {
	for _, c := range []struct{ world, procs, threads, cores, want int }{
		{2, 1, 2, 2, ringSpinYields}, // in-process, a core per reader
		{4, 1, 2, 2, ringArmYields},  // in-process, 12 readers on 2 cores
		{4, 1, 16, 16, ringSpinYields},
		{2, 2, 1, 2, ringSpinYields}, // a process per rank, GOMAXPROCS cut to fit
		{2, 2, 2, 2, ringArmYields},  // a process per rank, Go's default
		{2, 2, 2, 4, ringSpinYields},
		{8, 8, 2, 2, ringArmYields},
		{16, 16, 4, 64, ringArmYields},
	} {
		if got := ringYields(c.world, c.procs, c.threads, c.cores); got != c.want {
			t.Errorf("ringYields(world %d: %d procs x %d threads, %d cores) = %d, want %d",
				c.world, c.procs, c.threads, c.cores, got, c.want)
		}
	}
	budgets := func(nodes []*Node) (got []int) {
		for r := 1; r < len(nodes); r++ {
			for _, l := range []*shmLink{shmLinkOf(nodes, 0, r), shmLinkOf(nodes, r, 0)} {
				if l == nil {
					t.Fatalf("star edge 0<->%d has no shm link", r)
				}
				got = append(got, l.in.yields, l.out.yields)
			}
		}
		return got
	}
	// One world at a time: the next one starts after this one closed.
	threads, cores := runtime.GOMAXPROCS(0), runtime.NumCPU()
	local, err := StartLocalConfig(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range budgets(local) {
		if want := ringYields(2, 1, threads, cores); y != want {
			t.Errorf("in-process world: ring budget %d, want %d", y, want)
		}
	}
	for _, n := range local {
		n.Close()
	}
	// The same world started the way separate processes start it.
	procs := startMixedWorld(t, []bool{false, false})
	for _, y := range budgets(procs) {
		if want := ringYields(2, 2, threads, cores); y != want {
			t.Errorf("process-per-rank world: ring budget %d, want %d", y, want)
		}
	}
	for _, n := range procs {
		n.Close()
	}
}

// TestShmReaderParksAndIsWoken: a reader with nothing to read arms its
// doorbell once its yields are spent — it cannot spin on — and a publish
// still reaches it there.
func TestShmReaderParksAndIsWoken(t *testing.T) {
	for _, yields := range []int{ringArmYields, ringSpinYields} {
		ring := testRing(t, 4096)
		ring.yields = yields
		down := make(chan struct{})
		got := make(chan byte, 1)
		go func() {
			var b [1]byte
			if _, err := (&shmRingReader{ring: ring, down: down}).Read(b[:]); err == nil {
				got <- b[0]
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); ring.dataWait.load() == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("budget %d: reader never armed its doorbell", yields)
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
			t.Fatalf("budget %d: parked reader was not woken by the publish", yields)
		}
		close(down)
	}
}

// TestShmStagingFullParks: the ring is full behind a consumer that is not
// draining, the flusher is parked on it, and the combiner's staging buffer
// is past its bound. The producers that find it so must wait off the CPU —
// they compete with the very consumer they are waiting for — and must all
// get through once it drains, or all return once the edge goes down.
func TestShmStagingFullParks(t *testing.T) {
	const ringBytes, frameBytes, producers = 4096, 64 << 10, 24
	for _, drain := range []bool{true, false} {
		l, err := newShmLink(make([]byte, shmSegBytes(ringBytes, 4096)), ringBytes, 4096, true)
		if err != nil {
			t.Fatal(err)
		}
		down := make(chan struct{})
		res := make(chan bool, producers)
		for i := 0; i < producers; i++ {
			go func() { res <- l.writeFrame(make([]byte, frameBytes), down) }()
		}
		// One producer holds the token, the staging buffer takes frames up
		// to its bound, the rest have nowhere to put theirs.
		staged := maxShmPendingBytes/frameBytes + 1
		for deadline := time.Now().Add(5 * time.Second); len(res) < staged; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d frames staged", len(res), staged)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond) // the flusher's yields run out
		before := cpuTime(t)
		time.Sleep(100 * time.Millisecond)
		if used := cpuTime(t) - before; used > 20*time.Millisecond {
			t.Errorf("%d blocked producers used %v of CPU in 100ms", producers-staged, used)
		}
		if len(res) != staged {
			t.Fatalf("%d producers returned with the staging buffer full, want %d", len(res), staged)
		}
		if drain {
			got, err := io.Copy(io.Discard, io.LimitReader(&shmRingReader{ring: l.out, down: down}, producers*frameBytes))
			if err != nil || got != producers*frameBytes {
				t.Fatalf("drained %d bytes, %v; want %d", got, err, producers*frameBytes)
			}
		} else {
			close(down)
		}
		failed := 0
		for i := 0; i < producers; i++ {
			select {
			case ok := <-res:
				if !ok {
					failed++
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("producer %d still blocked (drain=%v)", i, drain)
			}
		}
		// A drained link loses nothing. A downed edge fails the producer
		// that held the ring; one woken behind it may still stage its
		// frame (reported at staging time, lost with the edge).
		if drain && failed > 0 || !drain && failed == 0 {
			t.Errorf("drain=%v: %d of %d producers failed", drain, failed, producers)
		}
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
	const window = 500 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(window)
	if used := cpuTime(t) - before; used > window/20 {
		t.Errorf("idle 16-rank world used %v of CPU in %v (over 5%% of a core)", used, window)
	}
}

// TestTCPIdleWorldCostsNoCPU is TestShmIdleWorldCostsNoCPU on a ShmOff
// world: 16 ranks over loopback TCP, no run attached, under the same 5 %
// of one core. Nothing but the netpoller and the keepalive tickers may
// wake.
func TestTCPIdleWorldCostsNoCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("measures 500 ms of idleness")
	}
	startWorldConfig(t, 16, Config{ShmOff: true})
	time.Sleep(300 * time.Millisecond)
	const window = 500 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(window)
	if used := cpuTime(t) - before; used > window/20 {
		t.Errorf("idle 16-rank TCP world used %v of CPU in %v (over 5%% of a core)", used, window)
	}
}

// cpuTime is the user+system CPU this process has used so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
