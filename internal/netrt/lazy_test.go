package netrt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// lazyExchange runs one quiesced round where the PE hosted on rank src
// sends a short tag chain to the PE on rank dst (one PE per rank), so
// the src-dst mesh edge must exist — or open — for the round to finish.
func lazyExchange(t *testing.T, nodes []*Node, src, dst int) {
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
	var delivered atomic.Int64
	for i := range rts {
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) {
			env := e
			bufpool.Put(pooled)
			rt.Enqueue(env.DstPE, func() {
				delivered.Add(1)
				if env.Tag > 0 {
					rt.SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: env.DstPE,
						DstPE: env.SrcPE, Tag: env.Tag - 1})
				}
			})
		})
	}
	rts[src].Enqueue(src, func() {
		rts[src].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: src, DstPE: dst, Tag: 3})
	})
	runAll(rts)
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d errors: %v", i, errs)
		}
	}
	if got := delivered.Load(); got != 4 {
		t.Fatalf("delivered %d hops between ranks %d and %d, want 4", got, src, dst)
	}
}

// totalConns sums sockets opened across the world (each edge counts
// twice, once per endpoint).
func totalConns(nodes []*Node) int64 {
	var sum int64
	for _, n := range nodes {
		sum += n.ConnsOpened()
	}
	return sum
}

// TestLazyFirstContact walks the whole lazy-dialing protocol on a
// six-rank world. Bootstrap must open only the coordinator star; a
// lower-rank sender must open its missing edge by dialing directly; a
// HIGHER-rank sender must get its edge via the FDialReq relay through
// rank 0 (the lower rank dials back, keeping the shm offer/accept roles
// fixed); and every fresh edge carries the round's traffic correctly.
func TestLazyFirstContact(t *testing.T) {
	const world = 6
	nodes := startWorld(t, world)

	// Bootstrap is the star: rank 0 holds one accepted conn per worker,
	// each worker holds exactly its dial to rank 0, no worker-worker
	// edges anywhere.
	star := int64(2 * (world - 1))
	if got := totalConns(nodes); got != star {
		t.Fatalf("bootstrap opened %d sockets, want the star's %d", got, star)
	}
	for r := 1; r < world; r++ {
		s := nodes[r].Stats()
		if s.ConnsDialed != 1 || s.ConnsAccepted != 0 {
			t.Fatalf("rank %d after bootstrap: dialed=%d accepted=%d, want 1/0", r, s.ConnsDialed, s.ConnsAccepted)
		}
	}

	// Lower rank sends first: rank 3 needs rank 5, dials it directly.
	lazyExchange(t, nodes, 3, 5)
	if d := nodes[3].Stats().ConnsDialed; d != 2 {
		t.Errorf("rank 3 dialed %d conns after contacting rank 5, want 2 (star + direct dial)", d)
	}
	if a := nodes[5].Stats().ConnsAccepted; a != 1 {
		t.Errorf("rank 5 accepted %d conns, want 1 (rank 3's first contact)", a)
	}
	if got := totalConns(nodes); got != star+2 {
		t.Errorf("after one first contact: %d sockets, want %d", got, star+2)
	}
	if shmSupported && shmLinkOf(nodes, 3, 5) == nil {
		t.Error("first contact between co-located ranks negotiated no shm link")
	}

	// Higher rank sends first: rank 4 needs rank 2, cannot dial (the
	// lower rank owns the dialer role), so it relays an FDialReq through
	// rank 0 and rank 2 dials back.
	lazyExchange(t, nodes, 4, 2)
	if r := nodes[4].Stats().DialReqs; r != 1 {
		t.Errorf("rank 4 originated %d dial requests, want 1", r)
	}
	if d := nodes[2].Stats().ConnsDialed; d != 2 {
		t.Errorf("rank 2 dialed %d conns after the relay, want 2 (star + dial-back)", d)
	}
	if a := nodes[4].Stats().ConnsAccepted; a != 1 {
		t.Errorf("rank 4 accepted %d conns, want 1 (rank 2's dial-back)", a)
	}
	if got := totalConns(nodes); got != star+4 {
		t.Errorf("after both first contacts: %d sockets, want %d", got, star+4)
	}

	// The edges are persistent: reusing both opens nothing new.
	lazyExchange(t, nodes, 5, 3)
	lazyExchange(t, nodes, 2, 4)
	if got := totalConns(nodes); got != star+4 {
		t.Errorf("reusing warm edges opened sockets: %d, want %d", got, star+4)
	}
}

// TestDialReqGlare drives both endpoints of one missing edge
// simultaneously from opposite sides — the lower rank dialing directly
// while the higher rank's FDialReq is in flight — and requires exactly
// one surviving connection carrying both ranks' traffic. The dialer-is-
// always-the-lower-rank convention makes true socket glare impossible;
// this pins the slot bookkeeping (dialing flag, stash flush, duplicate
// suppression in installLazy) under the race detector.
func TestDialReqGlare(t *testing.T) {
	const world, src, dst = 4, 1, 3
	for i := 0; i < 5; i++ {
		nodes := startWorld(t, world)
		rts := make([]*Runtime, world)
		for r, n := range nodes {
			rt, err := n.NewRuntime(world)
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			rts[r] = rt
		}
		var delivered atomic.Int64
		for r := range rts {
			rt := rts[r]
			rt.SetDeliver(func(e Env, pooled []byte) {
				env := e
				bufpool.Put(pooled)
				rt.Enqueue(env.DstPE, func() { delivered.Add(1) })
			})
		}
		// Both ends fire at once: 1->3 dials, 3->1 stashes and relays.
		rts[src].Enqueue(src, func() {
			rts[src].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: src, DstPE: dst})
		})
		rts[dst].Enqueue(dst, func() {
			rts[dst].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: dst, DstPE: src})
		})
		runAll(rts)
		for r, rt := range rts {
			if errs := rt.Errors(); len(errs) > 0 {
				t.Fatalf("iter %d rank %d errors: %v", i, r, errs)
			}
		}
		if got := delivered.Load(); got != 2 {
			t.Fatalf("iter %d: delivered %d messages across the glared edge, want 2", i, got)
		}
		// Exactly one edge may exist between them, counted once per
		// endpoint: rank 1's direct dial wins (it owns the dialer role),
		// and the in-flight FDialReq must not conjure a duplicate.
		opened := nodes[src].Stats().ConnsDialed - 1 + nodes[dst].Stats().ConnsAccepted
		if opened != 2 {
			t.Fatalf("iter %d: %d socket endpoints on the %d-%d edge, want 2 (one edge)", i, opened, src, dst)
		}
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestLazyDeadPeerFailsFast pins the failure path: a first-contact dial
// toward a rank that stopped listening must surface as a typed dial
// NetError aborting the run — everywhere, via the Bye cascade — instead
// of hanging the world in termination detection. Rank 3 stays alive (so
// its runtime still reports into the probe rounds) but its listener is
// gone, exactly the window where a rank's death has not yet reached the
// star.
func TestLazyDeadPeerFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("rides out the full ~10s dial-retry backoff")
	}
	t.Parallel() // overlaps TestHandleInboundSilentSocket's 10s wait
	const world = 4
	nodes := startWorld(t, world)
	rts := make([]*Runtime, world)
	for r, n := range nodes {
		rt, err := n.NewRuntime(world)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		rts[r] = rt
		rt.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
	}
	nodes[3].ln.Close()
	rts[1].Enqueue(1, func() {
		rts[1].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 1, DstPE: 3})
	})
	done := make(chan struct{})
	go func() {
		runAll(rts)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("world hung after first contact with a dead listener")
	}
	errs := rts[1].Errors()
	if len(errs) == 0 {
		t.Fatal("rank 1's run finished cleanly despite the dead first-contact peer")
	}
	var ne *NetError
	if !errors.As(errs[0], &ne) || ne.Op != "dial" || ne.Peer != 3 {
		t.Fatalf("rank 1's error %v, want a dial NetError naming peer 3", errs[0])
	}
}
