package netrt

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// TestTermTreeShape pins the k-ary layout the termination protocol
// derives locally on every rank: across fanouts and world sizes
// (including the world == fanout+1 boundary where the tree degenerates
// to the flat star, and off-by-one neighbours on both sides), every
// non-root rank appears in exactly one parent's child set, parent and
// children invert each other, and no rank's fan-out exceeds the
// configured fanout.
func TestTermTreeShape(t *testing.T) {
	for _, fanout := range []int{1, 2, 3, 8} {
		for world := 1; world <= 257; world++ {
			seen := make(map[int]int, world)
			for r := 0; r < world; r++ {
				kids := termChildren(r, fanout, world)
				if len(kids) > fanout {
					t.Fatalf("fanout=%d world=%d: rank %d has %d children", fanout, world, r, len(kids))
				}
				for _, c := range kids {
					if c <= r || c >= world {
						t.Fatalf("fanout=%d world=%d: rank %d has impossible child %d", fanout, world, r, c)
					}
					if p := termParent(c, fanout); p != r {
						t.Fatalf("fanout=%d world=%d: child %d of %d says parent %d", fanout, world, c, r, p)
					}
					seen[c]++
				}
			}
			for r := 1; r < world; r++ {
				if seen[r] != 1 {
					t.Fatalf("fanout=%d world=%d: rank %d claimed by %d parents", fanout, world, r, seen[r])
				}
			}
			// The boundary worlds must degenerate to the flat protocol:
			// everyone reports straight to rank 0.
			if world <= fanout+1 {
				for r := 1; r < world; r++ {
					if p := termParent(r, fanout); p != 0 {
						t.Fatalf("fanout=%d world=%d: flat-degenerate rank %d has parent %d", fanout, world, r, p)
					}
				}
			}
		}
	}
}

// termChain runs one message chain PE 0 -> PE world-1 -> PE 0 -> ...
// across a world with one PE per rank, so every hop crosses the longest
// mesh edge while the termination tree is probing, then checks all
// runtimes quiesced cleanly with the full chain delivered.
func termChain(t *testing.T, nodes []*Node, hops int) {
	t.Helper()
	world := len(nodes)
	rts := make([]*Runtime, world)
	for i, n := range nodes {
		rt, err := n.NewRuntime(world)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		rts[i] = rt
	}
	var delivered sync.WaitGroup
	delivered.Add(hops + 1)
	for i := range rts {
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) {
			env := e
			bufpool.Put(pooled)
			rt.Enqueue(env.DstPE, func() {
				delivered.Done()
				if env.Tag > 0 {
					rt.SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: env.DstPE,
						DstPE: env.SrcPE, Tag: env.Tag - 1})
				}
			})
		})
	}
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: world - 1, Tag: hops})
	})
	runAll(rts)
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d errors: %v", i, errs)
		}
	}
	delivered.Wait()
}

// TestTermNarrowTreeQuiesces runs real traffic through worlds whose
// termination tree has interior aggregating ranks — world 5 at fanout 2
// (rank 1 folds ranks 3 and 4) and world 9 (two full interior levels) —
// and checks the root's observed probe fan-in respects the fanout bound
// while quiescence still completes with every hop delivered.
func TestTermNarrowTreeQuiesces(t *testing.T) {
	for _, world := range []int{5, 9} {
		nodes := startWorldConfig(t, world, Config{TermFanout: 2})
		termChain(t, nodes, 20)
		root := nodes[0].Stats()
		if root.TermProbeRounds == 0 {
			t.Fatalf("world %d: root drove no probe rounds", world)
		}
		if root.TermProbeReports > root.TermProbeRounds*2 {
			t.Fatalf("world %d: root saw %d reports over %d rounds, fan-in bound is 2",
				world, root.TermProbeReports, root.TermProbeRounds)
		}
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestTermFanoutOneChain degenerates the tree to a linked list (every
// probe traverses the full world depth, every report folds through
// every interior rank) while ping-pong traffic keeps flipping ranks
// between idle and active mid-round. Run under -race this pins the
// aggregation window against the localReport sampling races; the
// correctness claim is that the deep tree neither deadlocks nor
// declares termination early (the chain must finish first).
func TestTermFanoutOneChain(t *testing.T) {
	nodes := startWorldConfig(t, 4, Config{TermFanout: 1})
	termChain(t, nodes, 40)
	root := nodes[0].Stats()
	if root.TermProbeRounds == 0 {
		t.Fatal("root drove no probe rounds")
	}
	if root.TermProbeReports > root.TermProbeRounds {
		t.Fatalf("fanout 1: root saw %d reports over %d rounds (more than one child?)",
			root.TermProbeReports, root.TermProbeRounds)
	}
}

// TestTermInteriorKillRecovery kills an INTERIOR tree rank mid-run:
// world 6 at fanout 2 makes rank 1 the aggregator for ranks 3 and 4, so
// its death orphans a whole subtree's reports. Every survivor must
// unwind with an error instead of hanging in a probe round that can
// never complete, and after Rejoin (which resets the aggregation
// windows along with the mesh epoch) a rerun over the same tree must
// quiesce cleanly.
func TestTermInteriorKillRecovery(t *testing.T) {
	const world, fanout = 6, 2
	var mu sync.Mutex
	nodes := make([]*Node, world)
	respawn := func(r int) {
		n, err := Start(Config{Rank: r, World: world, Coord: nodes[0].Addr(),
			Recover: true, TermFanout: fanout})
		if err != nil {
			t.Errorf("respawn rank %d: %v", r, err)
			return
		}
		mu.Lock()
		nodes[r] = n
		mu.Unlock()
	}
	ns, err := StartLocalConfig(world, Config{Recover: true, TermFanout: fanout, OnRespawn: respawn})
	if err != nil {
		t.Fatal(err)
	}
	copy(nodes, ns)
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	if kids := termChildren(1, fanout, world); len(kids) != 2 {
		t.Fatalf("rank 1 is not interior at world %d fanout %d: children %v", world, fanout, kids)
	}

	// An endless chain that cannot finish before the kill lands.
	rts := make([]*Runtime, world)
	for i, n := range nodes {
		rt, err := n.NewRuntime(world)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		rts[i] = rt
	}
	for i := range rts {
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) {
			env := e
			bufpool.Put(pooled)
			rt.Enqueue(env.DstPE, func() {
				if env.Tag > 0 {
					rt.SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: env.DstPE,
						DstPE: env.SrcPE, Tag: env.Tag - 1})
				}
			})
		})
	}
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: world - 1, Tag: 1 << 30})
	})
	go func() {
		time.Sleep(50 * time.Millisecond)
		nodes[1].Die()
	}()
	done := make(chan struct{})
	go func() {
		runAll(rts)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runs hung after the interior-rank kill")
	}
	for i, rt := range rts {
		if i != 1 && len(rt.Errors()) == 0 {
			t.Errorf("rank %d survived the kill without an error", i)
		}
	}

	// Rebuild the mesh: rank 0 waits to observe the death, then every
	// survivor rejoins concurrently while the hook respawns rank 1.
	awaitDeath(t, nodes[0])
	// Drop the killed node: from here slot 1 belongs to the respawn hook,
	// and nothing below may mistake the corpse for its replacement.
	mu.Lock()
	nodes[1] = nil
	mu.Unlock()
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		if r == 1 {
			continue
		}
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := nodes[r].Rejoin(); err != nil {
				t.Errorf("rank %d rejoin: %v", r, err)
			}
		}()
	}
	wg.Wait()
	awaitRespawn(t, &mu, nodes, 1)
	if t.Failed() {
		t.Fatal("mesh did not rebuild")
	}
	termChain(t, nodes, 20)
}
