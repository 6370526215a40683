package netrt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// TestExitHaltsRanksThatHaveNotAttached: the root's Exit halts every rank
// at once, without a quiescence wave — including ranks that have not
// built the run yet, as a rank hosting no element of an app may not
// have. Rank 0 exits three generations before the other ranks build any
// (a chain tree, so rank 1 forwards halts for runs it never attached);
// each of theirs then returns from Run at once, counted as exited. Exit
// off the root is refused with a typed error.
func TestExitHaltsRanksThatHaveNotAttached(t *testing.T) {
	const world, gens = 3, 3
	nodes := startWorldConfig(t, world, Config{TermFanout: 1})
	for g := 0; g < gens; g++ {
		rt, err := nodes[0].NewRuntime(world)
		if err != nil {
			t.Fatal(err)
		}
		rt.Enqueue(0, func() {
			if err := rt.Exit(); err != nil {
				t.Errorf("gen %d: Exit on the root: %v", g, err)
			}
		})
		rt.Run()
		if !rt.Exited() || len(rt.Errors()) > 0 {
			t.Fatalf("gen %d: root exited=%v errors %v", g, rt.Exited(), rt.Errors())
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes[1:] {
		for {
			n.mu.Lock()
			through := n.haltedThrough
			n.mu.Unlock()
			if through == gens-1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rank %d recorded halts through generation %d, want %d", n.rank, through, gens-1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for g := 0; g < gens; g++ {
		for _, n := range nodes[1:] {
			rt, err := n.NewRuntime(world)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Exit(); !errors.Is(err, ErrExitOffRoot) {
				t.Fatalf("Exit on rank %d: %v, want ErrExitOffRoot", n.rank, err)
			}
			done := make(chan struct{})
			go func() { rt.Run(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("gen %d rank %d: Run did not return after the root's Exit", g, n.rank)
			}
			if !rt.Exited() || len(rt.Errors()) > 0 {
				t.Fatalf("gen %d rank %d: exited=%v errors %v", g, n.rank, rt.Exited(), rt.Errors())
			}
		}
	}
}

// TestStaleTerminationIgnoredAfterRejoin holds rank 1's handler for a
// termination frame of the old mesh — the root's FHalt, or an FProbe —
// past dispatch's lock-free epoch check. Both ranks then Rejoin, rank 1
// starts the rebuilt mesh's generation-0 run (kept busy by a task), and
// only then does the handler run. The frame names generation 0 as well,
// but it belongs to the torn-down mesh: the rerun must be neither halted
// nor put in debt of a nudge, and must then finish normally.
func TestStaleTerminationIgnoredAfterRejoin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		f     Frame
		stale func(rt *Runtime) bool
	}{
		{"halt", Frame{Type: FHalt, Run: 0, A: 1}, func(rt *Runtime) bool { return rt.halted.Load() }},
		{"probe", Frame{Type: FProbe, Run: 0, A: 1}, func(rt *Runtime) bool { return rt.node.nudgeOwed.Load() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startWorldConfig(t, 2, Config{Recover: true})
			entered, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
			var held atomic.Bool
			hold := func() func() {
				if !held.CompareAndSwap(false, true) {
					return func() {} // only the first frame is held
				}
				close(entered)
				<-release
				return func() { close(finished) }
			}
			nodes[1].handlerHold.Store(&hold)
			var releaseOnce sync.Once
			releaseHandler := func() { releaseOnce.Do(func() { close(release) }) }
			t.Cleanup(releaseHandler)

			nodes[0].sendOpen(1, &tc.f)
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("rank 1 never handled the frame")
			}
			rejoined1 := make(chan error, 1)
			go func() { rejoined1 <- nodes[1].Rejoin() }()
			if err := nodes[0].Rejoin(); err != nil {
				t.Fatalf("rank 0 rejoin: %v", err)
			}
			if err := <-rejoined1; err != nil {
				t.Fatalf("rank 1 rejoin: %v", err)
			}

			rts := make([]*Runtime, len(nodes))
			var delivered atomic.Int64
			for i, n := range nodes {
				rt, err := n.NewRuntime(len(nodes))
				if err != nil {
					t.Fatal(err)
				}
				rt.SetDeliver(func(e Env, pooled []byte) { delivered.Add(1); bufpool.Put(pooled) })
				rts[i] = rt
			}
			busy := make(chan struct{})
			var busyOnce sync.Once
			unbusy := func() { busyOnce.Do(func() { close(busy) }) }
			t.Cleanup(unbusy)
			rts[1].Enqueue(1, func() { <-busy })
			ran1 := make(chan struct{})
			go func() { rts[1].Run(); close(ran1) }()
			for deadline := time.Now().Add(10 * time.Second); nodes[1].current(0) == nil; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("rank 1's rerun never attached")
				}
			}
			releaseHandler()
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				t.Fatal("held handler never finished")
			}
			if tc.stale(rts[1]) {
				t.Fatalf("the torn-down mesh's %s reached the rerun", tc.name)
			}

			rts[0].Enqueue(0, func() {
				rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Data: []byte{1, 2, 3}})
			})
			unbusy()
			rts[0].Run()
			select {
			case <-ran1:
			case <-time.After(10 * time.Second):
				t.Fatal("rank 1's rerun never finished")
			}
			for i, rt := range rts {
				if errs := rt.Errors(); len(errs) > 0 {
					t.Fatalf("rank %d: %v", i, errs)
				}
			}
			if delivered.Load() != 1 {
				t.Fatalf("delivered %d, want 1", delivered.Load())
			}
		})
	}
}
