package netrt

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/sim"
)

// The ring watch (ringWatch): while a PE of the rank polls or works, the
// ring readers sleep; a polling PE pokes them for ring bytes, and a PE
// that parks with none polling, a run that exits, or work that outlasts a
// whole bounded wait hands the rings back. These tests pin both halves by
// count (yields, frames, puts, probe reports), not by wall clock.

// readerYields sums the yields of every inbound ring's reader.
func readerYields(nodes []*Node) (y int64) {
	for _, n := range nodes {
		for _, l := range *n.rings.Load() {
			y += l.in.yielded.Load()
		}
	}
	return y
}

// armedBuffer registers an arena buffer for handle id on the send->recv
// edge, sentinel armed, and the put payload that fills it.
func armedBuffer(t *testing.T, rts []*Runtime, send, recv int, id int64, size int) (buf, payload []byte) {
	t.Helper()
	buf = registerArenaBuffer(t, rts, send, recv, id, size)
	payload = bytes.Repeat([]byte{byte(id)}, size)
	binary.LittleEndian.PutUint64(payload[size-8:], 0x0807060504030201)
	return buf, payload
}

// detectPut is a poll pass reduced to what ckdirect's realDetect does for
// a direct put into buf: acquire-load the sentinel, take the credit and
// the receipt (PutLanded), tell the scheduler a callback runs (Busy),
// re-arm, run cb, return the credit.
func detectPut(rt *Runtime, pe int, buf []byte, cb func()) bool {
	sw := sentinelOf(buf)
	if atomic.LoadUint64(sw) == dpOOB {
		return false
	}
	rt.PutLanded()
	rt.Busy(pe)
	atomic.StoreUint64(sw, dpOOB)
	cb()
	rt.PutDetected()
	return true
}

// TestShmReaderSleepsWhilePEPolls: over a 10 000-round-trip direct-put
// pingpong between two ranks, each PE finds its puts itself, and the two
// ring readers do not yield once: they sleep while their PE polls or runs
// a callback, and are poked only when a frame (a termination probe)
// lands in their ring. Every put is detected, and the run ends with the
// global sums matched.
//
// The exact count holds on one P only. A PE that parks hands its ring
// back, and its reader then yields as it always has, with the full
// in-process budget (ringSpinYields), until the next put wakes the PE.
// With two Ps a host that stalls one thread for a few hundred
// microseconds (a shared 2-vCPU host does, a few times in this exchange)
// parks the other side's PE, and the count follows the stalls: on such a
// host it read 17 to 100 000, against 27 000 to 39 000 for readers that
// never sleep. On one P a stall stops both PEs alike, so neither runs out
// its spins. The two-P run checks the rest (every put found, the sums
// matched) with PEs that park and take their rings back mid-exchange, and
// logs the count.
func TestShmReaderSleepsWhilePEPolls(t *testing.T) {
	skipNoShm(t)
	const rounds = 10000
	t.Run("1P", func(t *testing.T) {
		if y := putPingpongYields(t, 1, rounds); y != 0 {
			t.Errorf("ring readers yielded %d times over %d round trips with a PE polling, want 0", y, rounds-pingpongWarm)
		}
	})
	t.Run("2P", func(t *testing.T) {
		t.Logf("ring readers yielded %d times over %d round trips", putPingpongYields(t, 2, rounds), rounds-pingpongWarm)
	})
}

// pingpongWarm is how many round trips putPingpongYields runs before it
// starts counting yields.
const pingpongWarm = 200

// putPingpongYields runs a direct-put pingpong of rounds round trips
// between the PEs of a 2-rank world on procs Ps, checks that every put was
// detected and the sums matched, and returns how often the ring readers
// yielded after the first pingpongWarm round trips.
func putPingpongYields(t *testing.T, procs, rounds int) int64 {
	const size = 1024
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	nodes := startWorld(t, 2)
	rts := newRuntimes(t, nodes)
	for _, rt := range rts {
		rt.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
	}
	buf1, pay01 := armedBuffer(t, rts, 0, 1, 7, size)
	buf0, pay10 := armedBuffer(t, rts, 1, 0, 8, size)
	var got [2]atomic.Int64
	var y0, y1 atomic.Int64
	done := make(chan struct{})
	rts[1].SetPoll(func(pe int, _ bool) bool {
		return detectPut(rts[1], pe, buf1, func() {
			got[1].Add(1)
			rts[1].SendPut(0, 8, pay10)
		})
	})
	rts[0].SetPoll(func(pe int, _ bool) bool {
		return detectPut(rts[0], pe, buf0, func() {
			switch n := got[0].Add(1); {
			case n == pingpongWarm:
				y0.Store(readerYields(nodes))
			case n == int64(rounds):
				y1.Store(readerYields(nodes))
				close(done)
				return
			}
			rts[0].SendPut(1, 7, pay01)
		})
	})
	// An extra credit on rank 0 keeps the run from ending before the
	// registrations reach their senders.
	rts[0].PutIssued()
	ended := make(chan struct{})
	go func() {
		runAll(rts)
		close(ended)
	}()
	awaitReg(t, nodes, rts, 0, 1, 7)
	awaitReg(t, nodes, rts, 1, 0, 8)
	rts[0].Enqueue(0, func() { rts[0].SendPut(1, 7, pay01) })
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("pingpong stalled at %d/%d round trips", got[0].Load(), got[1].Load())
	}
	rts[0].Enqueue(0, rts[0].PutDetected)
	select {
	case <-ended:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not terminate")
	}
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d: %v", i, errs)
		}
	}
	if got[0].Load() != int64(rounds) || got[1].Load() != int64(rounds) {
		t.Fatalf("detected %d and %d puts, want %d each", got[0].Load(), got[1].Load(), rounds)
	}
	var s, r int64
	for _, rt := range rts {
		_, rs, rr := rt.localReport()
		s, r = s+rs, r+rr
	}
	if s != r || s != 2*int64(rounds) {
		t.Errorf("sent %d, received %d; want %d each", s, r, 2*rounds)
	}
	if st := nodes[0].Stats(); st.PutsDirect != int64(rounds) || st.PutsFramed != 0 {
		t.Errorf("rank 0 puts direct %d framed %d, want %d direct", st.PutsDirect, st.PutsFramed, rounds)
	}
	return y1.Load() - y0.Load()
}

// TestShmReaderAnswersBusyRank is TestTermLeafIdleLastHaltsByNudge with
// the leaf's long work inside a put callback instead of a task: rank 0
// puts straight into the leaf's arena, and the leaf's callback runs until
// three probe rounds have been answered by every rank. The leaf's PE is
// not polling while it runs, so its ring reader must take the probes —
// a rank that counted the callback as polling would never answer them.
func TestShmReaderAnswersBusyRank(t *testing.T) {
	skipNoShm(t)
	const size = 256
	for _, tc := range []struct{ world, fanout int }{{5, 1}, {5, 2}, {7, 2}} {
		nodes := startWorldConfig(t, tc.world, Config{TermFanout: tc.fanout})
		rts := newRuntimes(t, nodes)
		for _, rt := range rts {
			rt.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
		}
		leaf := tc.world - 1
		kids := int64(len(termChildren(0, tc.fanout, tc.world)))
		buf, payload := armedBuffer(t, rts, 0, leaf, 7, size)
		var answered, ran atomic.Bool
		var ticksAtIdle atomic.Int64
		rts[leaf].SetPoll(func(pe int, _ bool) bool {
			return detectPut(rts[leaf], pe, buf, func() {
				ran.Store(true)
				base := nodes[0].Stats().TermProbeReports
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
					if nodes[0].Stats().TermProbeReports >= base+3*kids {
						answered.Store(true)
						break
					}
					// Busy, not parked: the callback holds its PE.
					runtime.Gosched()
				}
				ticksAtIdle.Store(nodes[0].Stats().TermTickRounds)
			})
		})
		rts[0].PutIssued()
		ended := make(chan struct{})
		go func() {
			runAll(rts)
			close(ended)
		}()
		awaitReg(t, nodes, rts, 0, leaf, 7)
		rts[0].Enqueue(0, func() {
			rts[0].SendPut(leaf, 7, payload)
			rts[0].PutDetected()
		})
		select {
		case <-ended:
		case <-time.After(30 * time.Second):
			t.Fatalf("world %d fanout %d: run did not terminate", tc.world, tc.fanout)
		}
		for i, rt := range rts {
			if errs := rt.Errors(); len(errs) > 0 {
				t.Fatalf("world %d fanout %d rank %d: %v", tc.world, tc.fanout, i, errs)
			}
		}
		root := nodes[0].Stats()
		switch {
		case !ran.Load():
			t.Errorf("world %d fanout %d: the put callback never ran", tc.world, tc.fanout)
		case !answered.Load():
			t.Errorf("world %d fanout %d: probes went unanswered while the leaf ran a put callback", tc.world, tc.fanout)
		}
		if late := root.TermTickRounds - ticksAtIdle.Load(); late > 1 {
			t.Errorf("world %d fanout %d: %d tick rounds after the leaf went idle", tc.world, tc.fanout, late)
		}
		if root.TermNudges == 0 {
			t.Errorf("world %d fanout %d: the root never heard a nudge", tc.world, tc.fanout)
		}
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestShmReaderHandoff: rank 0 streams frames at rank 1 in bursts and
// pauses, so rank 1's only PE keeps polling, running tasks, parking and
// being kicked awake while they arrive — every handoff of the ring
// between the PE and the reader, in both directions, happens many times.
// Every frame is read and its task run, and the run ends with the sums
// matched.
func TestShmReaderHandoff(t *testing.T) {
	skipNoShm(t)
	const frames = 600
	nodes := startWorld(t, 2)
	rts := newRuntimes(t, nodes)
	var got atomic.Int64
	rts[0].SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
	rts[1].SetDeliver(func(e Env, pooled []byte) {
		bufpool.Put(pooled)
		rts[1].Enqueue(1, func() { got.Add(1) })
	})
	var send func(i int)
	send = func(i int) {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Tag: i})
		if i+1 == frames {
			return
		}
		// Bursts of five, then a pause long enough for rank 1's PE to
		// run out of spins and park (or, at the shorter ones, not quite).
		var gap time.Duration
		if i%5 == 4 {
			gap = time.Duration(i%3+1) * 150 * time.Microsecond
		}
		rts[0].After(0, sim.FromDuration(gap), func() { send(i + 1) })
	}
	rts[0].Enqueue(0, func() { send(0) })
	before := readerYields(nodes[1:])
	ended := make(chan struct{})
	go func() {
		runAll(rts)
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(60 * time.Second):
		t.Fatalf("run did not terminate: %d of %d frames handled", got.Load(), frames)
	}
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d: %v", i, errs)
		}
	}
	if got.Load() != frames {
		t.Fatalf("rank 1 handled %d of %d frames", got.Load(), frames)
	}
	var s, r int64
	for _, rt := range rts {
		_, rs, rr := rt.localReport()
		s, r = s+rs, r+rr
	}
	if s != r || s != frames {
		t.Errorf("sent %d, received %d; want %d each", s, r, frames)
	}
	if readerYields(nodes[1:]) == before {
		t.Error("rank 1's reader never took its ring back: the PE never parked, so no handoff was tested")
	}
}

// TestShmReaderStreamsToBusyRank: rank 1's only PE runs one long task
// while rank 0 sends it small eager frames and 2 MiB of rendezvous data,
// twice the ring, so the senders block on space until rank 1's reader
// drains. No PE of rank 1 polls and none is parked: the reader sleeps on
// until the PE has been at work for a whole bounded wait (two expiries of
// its 2 ms timer), then takes the ring back and reads the stream, all of
// it while the task still runs.
func TestShmReaderStreamsToBusyRank(t *testing.T) {
	skipNoShm(t)
	const small, large, largeBytes = 64, 8, 256 << 10
	nodes := startWorld(t, 2)
	rts := newRuntimes(t, nodes)
	var got atomic.Int64
	rts[0].SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
	rts[1].SetDeliver(func(e Env, pooled []byte) {
		bufpool.Put(pooled)
		got.Add(1)
	})
	var busy, readWhileBusy atomic.Bool
	var took atomic.Int64       // ns from the first send to the last frame read
	var readInTask atomic.Int64 // frames read by the time the task ended
	sentAt := make(chan time.Time, 1)
	rts[1].Enqueue(1, func() {
		busy.Store(true)
		defer func() { readInTask.Store(got.Load()) }()
		var start time.Time
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if start.IsZero() {
				select {
				case start = <-sentAt:
				default:
				}
			}
			if !start.IsZero() && got.Load() == small+large {
				took.Store(int64(time.Since(start)))
				readWhileBusy.Store(true)
				return
			}
			// Busy, not parked: the task holds its PE.
			runtime.Gosched()
		}
	})
	ended := make(chan struct{})
	go func() {
		runAll(rts)
		close(ended)
	}()
	waitFor(t, "rank 1's task to start", busy.Load)
	rts[0].Enqueue(0, func() {
		sentAt <- time.Now()
		for i := 0; i < small+large; i++ {
			env := &Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Tag: i}
			if i%(small/large+1) == 0 {
				env.Data = make([]byte, largeBytes)
			}
			rts[0].SendMsg(env)
		}
	})
	select {
	case <-ended:
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not terminate: rank 1 read %d of %d frames", got.Load(), small+large)
	}
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d: %v", i, errs)
		}
	}
	if !readWhileBusy.Load() {
		t.Fatalf("rank 1 read %d of %d frames while its PE was at work for 5s", readInTask.Load(), small+large)
	}
	// The takeover waits out two 2 ms expiries; a second is room for a
	// loaded runner, and far short of a reader that never takes over.
	d := time.Duration(took.Load())
	t.Logf("rank 1 read the stream %v after the first send", d)
	if d > time.Second {
		t.Errorf("rank 1 took %v to read the stream while its PE was at work, want under 1s", d)
	}
}

// TestPassHookSpinsOnRingRanksOnly: after a short eager pingpong, the
// idle-pass hook a run installs (Node.watchRings) tells its PEs to spin
// on exactly when the rank holds a shm ring. Every arrival at a TCP-only
// rank comes from a goroutine that enqueues or kicks, so its PEs must
// park after one empty pass instead of keeping Go from the netpoller.
func TestPassHookSpinsOnRingRanksOnly(t *testing.T) {
	for _, c := range []struct {
		name   string
		shmOff bool
	}{{"tcp", true}, {"shm", false}} {
		t.Run(c.name, func(t *testing.T) {
			if !c.shmOff {
				skipNoShm(t)
			}
			nodes := startWorldConfig(t, 2, Config{ShmOff: c.shmOff})
			eagerPingpong(t, nodes, 50)
			for r, n := range nodes {
				for _, kick := range []bool{false, true} {
					if spin := n.watchRings(kick); spin != !c.shmOff {
						t.Errorf("rank %d (kick=%v): pass hook says spin=%v, want %v", r, kick, spin, !c.shmOff)
					}
				}
			}
		})
	}
}

// eagerPingpong bounces one 1 KiB eager message rounds times each way
// between the one-PE ranks of a 2-rank world and checks every hop landed.
func eagerPingpong(t *testing.T, nodes []*Node, rounds int) {
	t.Helper()
	rts := newRuntimes(t, nodes)
	var delivered atomic.Int64
	for _, rt := range rts {
		rt := rt
		rt.SetDeliver(func(env Env, pooled []byte) {
			rt.Enqueue(env.DstPE, func() {
				delivered.Add(1)
				if env.Tag > 0 {
					rt.SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: env.DstPE, DstPE: env.SrcPE, Tag: env.Tag - 1, Data: env.Data})
				}
				bufpool.Put(pooled) // env.Data aliases it
			})
		})
	}
	payload := bytes.Repeat([]byte{0x3C}, 1024)
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Tag: 2*rounds - 1, Data: payload})
	})
	runAll(rts)
	for r, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d errors: %v", r, errs)
		}
	}
	if got := delivered.Load(); got != int64(2*rounds) {
		t.Fatalf("delivered %d hops, want %d", got, 2*rounds)
	}
}
