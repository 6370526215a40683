package netrt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// These tests pin the event-driven termination loop by COUNT — rounds,
// tick rounds, nudges, frames after halt — not by wall clock, so they
// hold on a loaded CI runner. The halting rule itself is pinned by the
// older tests in term_test.go, which this change leaves unmodified.

// newRuntimes builds one runtime per node (one PE per rank).
func newRuntimes(t *testing.T, nodes []*Node) []*Runtime {
	t.Helper()
	rts := make([]*Runtime, len(nodes))
	for i, n := range nodes {
		rt, err := n.NewRuntime(len(nodes))
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		rts[i] = rt
	}
	return rts
}

// TestTermEmptyRunsNeedNoTick: an empty run on a warmed mesh is halted by
// events alone — the first probe at Run, the worker's attach nudge if it
// was late, the confirming round — in at most four rounds, and the 1 ms
// backstop starts none of them (a few in a hundred may lose a race to
// it; that is what it is for).
func TestTermEmptyRunsNeedNoTick(t *testing.T) {
	nodes := startWorld(t, 2)
	const runs = 100
	clean := 0
	for i := 0; i < runs; i++ {
		before := nodes[0].Stats()
		rts := newRuntimes(t, nodes)
		runAll(rts)
		for r, rt := range rts {
			if errs := rt.Errors(); len(errs) > 0 {
				t.Fatalf("run %d rank %d: %v", i, r, errs)
			}
		}
		after := nodes[0].Stats()
		if rounds := after.TermProbeRounds - before.TermProbeRounds; rounds > 4 {
			t.Errorf("run %d took %d probe rounds, want at most 4", i, rounds)
		}
		if after.TermTickRounds == before.TermTickRounds {
			clean++
		}
	}
	if clean < runs*95/100 {
		t.Errorf("only %d of %d empty runs finished without a tick-started round", clean, runs)
	}
	s := nodes[0].Stats()
	if s.TermEventRounds+s.TermTickRounds != s.TermProbeRounds {
		t.Errorf("event %d + tick %d rounds != %d probe rounds", s.TermEventRounds, s.TermTickRounds, s.TermProbeRounds)
	}
}

// TestTermLeafIdleLastHaltsByNudge: on narrow trees (fanout 1 and 2 over
// 5 and 7 ranks) the deepest leaf is the last rank to go idle, long after
// every other rank has answered idle. Its nudge, forwarded up through
// the interior ranks, is what gets the run halted: no round is started by
// the backstop after the leaf went idle, the root's report fan-in stays
// within the fanout, and so does its nudge fan-in (each child forwards
// at most one per round however many ranks below it went idle).
func TestTermLeafIdleLastHaltsByNudge(t *testing.T) {
	for _, tc := range []struct{ world, fanout int }{{5, 1}, {5, 2}, {7, 1}, {7, 2}} {
		nodes := startWorldConfig(t, tc.world, Config{TermFanout: tc.fanout})
		rts := newRuntimes(t, nodes)
		leaf := tc.world - 1
		kids := int64(len(termChildren(0, tc.fanout, tc.world)))
		var ticksAtIdle atomic.Int64
		rts[leaf].Enqueue(leaf, func() {
			// Busy until three whole rounds have failed on this leaf alone
			// (a round completes only with the leaf's own answer in it):
			// every other rank is idle and has said so.
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				if nodes[0].Stats().TermProbeReports >= 3*kids {
					break
				}
				time.Sleep(time.Millisecond)
			}
			ticksAtIdle.Store(nodes[0].Stats().TermTickRounds)
		})
		runAll(rts)
		root := nodes[0].Stats()
		if late := root.TermTickRounds - ticksAtIdle.Load(); late > 1 {
			// One tick may already have been in flight when the leaf
			// sampled the counter; a second means the nudge did not halt.
			t.Errorf("world %d fanout %d: %d tick rounds after the leaf went idle", tc.world, tc.fanout, late)
		}
		if root.TermNudges == 0 {
			t.Errorf("world %d fanout %d: the root never heard a nudge", tc.world, tc.fanout)
		}
		if root.TermProbeReports > root.TermProbeRounds*kids {
			t.Errorf("world %d fanout %d: %d reports over %d rounds, fan-in bound is %d",
				tc.world, tc.fanout, root.TermProbeReports, root.TermProbeRounds, kids)
		}
		if root.TermNudges > root.TermProbeRounds*kids {
			t.Errorf("world %d fanout %d: %d nudges over %d rounds: a child forwarded more than one per round",
				tc.world, tc.fanout, root.TermNudges, root.TermProbeRounds)
		}
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestTermInFlightFrameDefersHalt: rank 2 sends rank 1 a frame and goes
// idle; rank 1's reader for that edge is held inside deliver, so the
// rounds rank 0 drives meanwhile (over its own edges to both) see every
// rank idle with sent != received — the frame in flight to a rank that
// already answered idle. No such round may halt. Once the frame lands
// its handler runs, its receipt is counted, rank 1's nudge asks for a
// fresh round, and only then does the run halt, with nothing arriving
// after the decision. (Three ranks, because a probe cannot overtake an
// app frame on the edge they share.)
func TestTermInFlightFrameDefersHalt(t *testing.T) {
	nodes := startWorld(t, 3)
	rts := newRuntimes(t, nodes)
	var handled atomic.Bool
	var roundsHeld int64
	rts[1].SetDeliver(func(e Env, pooled []byte) {
		bufpool.Put(pooled)
		// The frame stays on the wire, as far as the counters know, until
		// three more rounds have come and gone (a halt would stop them).
		before := nodes[0].Stats().TermProbeRounds
		for deadline := time.Now().Add(5 * time.Second); roundsHeld < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			roundsHeld = nodes[0].Stats().TermProbeRounds - before
		}
		rts[1].Enqueue(1, func() { handled.Store(true) })
	})
	rts[2].Enqueue(2, func() {
		rts[2].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 2, DstPE: 1})
	})
	runAll(rts)
	if !handled.Load() || roundsHeld < 3 {
		t.Fatalf("the run halted with its one frame still in flight (%d rounds after it left)", roundsHeld)
	}
	if s, r := rts[2].sent.Load(), rts[1].recv.Load(); s != 1 || r != 1 {
		t.Errorf("sent %d received %d, want 1 and 1", s, r)
	}
}

// TestTermAbortWakesReportWait: with rank 1's only reader wedged inside
// a deliver handler (a TCP-only world, so probes queue behind the app
// frame), rank 0's coordinator is blocked waiting for a report that is
// not coming. An abort or a Die must get Run back within milliseconds,
// not at the 250 ms report deadline.
func TestTermAbortWakesReportWait(t *testing.T) {
	for _, how := range []string{"abort", "die"} {
		nodes := startWorldConfig(t, 2, Config{ShmOff: true})
		rts := newRuntimes(t, nodes)
		release := make(chan struct{})
		rts[1].SetDeliver(func(e Env, pooled []byte) {
			bufpool.Put(pooled)
			<-release
		})
		rts[0].Enqueue(0, func() {
			rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1})
		})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rts[1].Run()
		}()
		done := make(chan struct{})
		go func() {
			rts[0].Run()
			close(done)
		}()
		// Long enough for a round to have begun after the reader wedged.
		time.Sleep(20 * time.Millisecond)
		start := time.Now()
		if how == "abort" {
			rts[0].abort(&NetError{Rank: 0, Peer: 1, Op: "read", Err: errors.New("test abort")})
		} else {
			nodes[0].Die()
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Run did not return", how)
		}
		if d := time.Since(start); d > termReportWait/2 {
			t.Errorf("%s: Run returned after %v — the coordinator slept through it", how, d)
		}
		close(release)
		rts[1].abort(&NetError{Rank: 1, Peer: 0, Op: "read", Err: errors.New("test over")})
		wg.Wait()
	}
}

// TestTermLongRunProbesNoMoreThanTheTicker: a two-rank pingpong that runs
// for a second crosses rank 0's idle edge on every message, yet starts no
// more rounds than the 1 ms ticker alone used to (1000) plus the
// geometric ramp of the floor.
func TestTermLongRunProbesNoMoreThanTheTicker(t *testing.T) {
	if testing.Short() {
		t.Skip("one second of pingpong")
	}
	nodes := startWorld(t, 2)
	rts := newRuntimes(t, nodes)
	began := time.Now()
	// Rank 1 echoes; rank 0 serves again until the second is up.
	for i, rt := range rts {
		rt.SetDeliver(func(e Env, pooled []byte) {
			bufpool.Put(pooled)
			rt.Enqueue(i, func() {
				if i == 1 || time.Since(began) < time.Second {
					rt.SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: i, DstPE: 1 - i})
				}
			})
		})
	}
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1})
	})
	runAll(rts)
	elapsed := time.Since(began)
	rounds := nodes[0].Stats().TermProbeRounds
	if limit := int64(elapsed/termTick) + 16; rounds > limit {
		t.Errorf("%d probe rounds in %v, want at most %d", rounds, elapsed, limit)
	}
	if sent := rts[0].sent.Load(); sent < 1000 {
		t.Errorf("only %d round trips in %v: the run was not busy", sent, elapsed)
	}
}
