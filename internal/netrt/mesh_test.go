package netrt

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// These tests pin the one path that builds a mesh: the join handshake
// (joinStar / gatherJoins / startPeers) that both Start and Rejoin run,
// handleInbound as the only reader of an inbound connection's first
// frame, and the teardown rule that has to hold on the sparse mesh that
// path produces.

// poolSettles waits for the pool's ledger since before to balance —
// every Get matched by a Put or a Dropped. Writers drain and readers
// release asynchronously after a teardown, so it polls.
func poolSettles(t *testing.T, before bufpool.Stats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := bufpool.Default.Stats()
		gets := s.Gets - before.Gets
		puts := s.Puts - before.Puts
		dropped := s.Dropped - before.Dropped
		if gets == puts+dropped {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool unbalanced: gets=%d puts=%d dropped=%d (leak of %d)",
				gets, puts, dropped, gets-puts-dropped)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// emptyRun runs one generation with no app traffic on the given nodes
// and returns each rank's errors. It fails the test if the world has
// not unwound within the bound.
func emptyRun(t *testing.T, nodes []*Node, bound time.Duration) [][]error {
	t.Helper()
	rts := make([]*Runtime, len(nodes))
	for i, n := range nodes {
		rt, err := n.NewRuntime(n.World())
		if err != nil {
			t.Fatalf("rank %d: %v", n.Rank(), err)
		}
		rt.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
		rts[i] = rt
	}
	done := make(chan struct{})
	go func() {
		runAll(rts)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(bound):
		t.Fatalf("run still going after %v", bound)
	}
	errs := make([][]error, len(rts))
	for i, rt := range rts {
		errs[i] = rt.Errors()
	}
	return errs
}

// TestLeaveReachesRanksWithNoEdge: on the default mesh ranks 1 and 2
// never opened an edge to rank 3, so when rank 3 exits between runs they
// hear neither its FLeave nor its EOF. Rank 0 hears the leave over the
// star and must relay it; without the relay ranks 1 and 2 sit in run
// 1's termination detection until the stall watchdog panics.
func TestLeaveReachesRanksWithNoEdge(t *testing.T) {
	const world = 4
	nodes := startWorld(t, world)
	for r, errs := range emptyRun(t, nodes, 30*time.Second) {
		if len(errs) > 0 {
			t.Fatalf("run 0, rank %d: %v", r, errs)
		}
	}
	if got, star := totalConns(nodes), int64(2*(world-1)); got != star {
		t.Fatalf("run 0 opened %d sockets, want the star's %d (no worker-worker edge)", got, star)
	}
	nodes[3].Close()
	for r, errs := range emptyRun(t, nodes[:3], 10*time.Second) {
		var ne *NetError
		if len(errs) == 0 || !errors.As(errs[0], &ne) || ne.Op != "leave" || ne.Peer != 3 {
			t.Errorf("run 1, rank %d: errors %v, want a leave NetError naming peer 3", r, errs)
		}
	}
	// The relay arrived on live star edges and must not have quieted
	// them: 0<->1 and 0<->2 still count as healthy connections.
	for _, r := range []int{1, 2} {
		if p := nodes[r].peerTable()[0]; p.quiet.Load() || p.failed.Load() {
			t.Errorf("rank %d's star edge was quieted or failed by the relayed leave", r)
		}
	}
}

// freeAddrs reserves n distinct loopback ports and releases them.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestStaticLaunchAndRejoin brings a world up from a Peers table alone —
// no Coord anywhere — and walks it through everything a launch mode has
// to support: the star, a worker-to-worker edge opened by first contact,
// a rank death, Rejoin (which must find the coordinator at Peers[0]),
// and a rerun on the rebuilt mesh.
func TestStaticLaunchAndRejoin(t *testing.T) {
	const world = 3
	peers := freeAddrs(t, world)
	var mu sync.Mutex
	nodes := make([]*Node, world)
	start := func(r int) error {
		cfg := Config{Rank: r, Peers: peers, Recover: true}
		if r == 0 {
			cfg.OnRespawn = func(r int) {
				n, err := Start(Config{Rank: r, Peers: peers, Recover: true})
				if err != nil {
					t.Errorf("respawn rank %d: %v", r, err)
					return
				}
				mu.Lock()
				nodes[r] = n
				mu.Unlock()
			}
		}
		n, err := Start(cfg)
		mu.Lock()
		nodes[r] = n
		mu.Unlock()
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = start(r)
		}()
	}
	wg.Wait()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("static start, rank %d: %v", r, err)
		}
	}
	for r, n := range nodes {
		if n.Addr() != peers[r] {
			t.Fatalf("rank %d listens on %s, want its Peers entry %s", r, n.Addr(), peers[r])
		}
	}
	if got, star := totalConns(nodes), int64(2*(world-1)); got != star {
		t.Fatalf("static bootstrap opened %d sockets, want the star's %d", got, star)
	}
	lazyExchange(t, nodes, 1, 2)
	if got := totalConns(nodes); got != int64(2*(world-1))+2 {
		t.Fatalf("after first contact: %d sockets, want the star plus one edge", got)
	}

	nodes[2].Die()
	awaitDeath(t, nodes[0])
	mu.Lock()
	nodes[2] = nil
	mu.Unlock()
	for _, r := range []int{0, 1} {
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
	awaitRespawn(t, &mu, nodes, 2)
	if t.Failed() {
		t.Fatal("mesh did not rebuild")
	}
	lazyExchange(t, nodes, 2, 1)
}

// TestBootstrapRejectsDuplicateJoin: a world that is still forming has
// no stale joins to forgive, so a second FJoin for a rank that already
// joined fails the coordinator's Start at once, with a typed error —
// not after the join window.
func TestBootstrapRejectsDuplicateJoin(t *testing.T) {
	addrC := make(chan string, 1)
	type result struct {
		n   *Node
		err error
	}
	resC := make(chan result, 1)
	go func() {
		n, err := Start(Config{Rank: 0, World: 3, Coord: "127.0.0.1:0",
			OnListen: func(a string) { addrC <- a }})
		resC <- result{n, err}
	}()
	addr := <-addrC
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := writeFrame(c, &Frame{Type: FJoin, A: 1, Payload: []byte("127.0.0.1:1")}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case res := <-resC:
		if res.err == nil {
			res.n.Close()
			t.Fatal("Start accepted two joins for rank 1")
		}
		var ne *NetError
		if !errors.As(res.err, &ne) || ne.Op != "bootstrap" || ne.Rank != 0 {
			t.Fatalf("got %v, want a typed bootstrap NetError on rank 0", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Start still waiting 5s after a duplicate join")
	}
}

// TestHandleInboundRejects feeds the accept loop every first frame that
// must NOT become a mesh edge or a parked join. Each is dialed raw
// against a running three-rank world; the node must close that one
// connection — the client reads EOF — and nothing else: no goroutine or
// pooled buffer left behind, and the world still finishes a run.
func TestHandleInboundRejects(t *testing.T) {
	before := bufpool.Default.Stats()
	nodes, err := StartLocalConfig(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	closeAll := func() {
		if !closed {
			closed = true
			for _, n := range nodes {
				n.Close()
			}
		}
	}
	defer closeAll()
	goroutines := runtime.NumGoroutine()

	hello := func(rank int64) []*Frame { return []*Frame{{Type: FHello, A: rank}} }
	cases := []struct {
		name   string
		target int
		send   []*Frame
		raw    []byte
	}{
		{"hello from a higher rank", 1, hello(2), nil},
		{"hello from our own rank", 1, hello(1), nil},
		{"hello out of range", 1, hello(99), nil},
		{"hello with a negative rank", 1, hello(-1), nil},
		{"hello at the coordinator", 0, hello(1), nil},
		// Rank 0's star edge to rank 1 is open: a second connection
		// claiming to be rank 0 completes the shm exchange (an empty
		// offer is a decline) and is then refused as a duplicate.
		{"duplicate hello for an open edge", 1, []*Frame{{Type: FHello, A: 0}, {Type: FShmOffer}}, nil},
		{"join at a worker", 1, []*Frame{{Type: FJoin, A: 2, Payload: []byte("127.0.0.1:1")}}, nil},
		{"join with no rejoin possible", 0, []*Frame{{Type: FJoin, A: 2, Payload: []byte("127.0.0.1:1")}}, nil},
		{"unknown first frame", 1, []*Frame{{Type: FHalt}}, nil},
		// Long enough to fill a frame header, so the magic check sees it
		// now rather than at the handshake deadline.
		{"not a frame at all", 1, nil, []byte("GET / HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: port-scanner\r\n\r\n")},
	}
	var wg sync.WaitGroup
	for _, tc := range cases {
		tc := tc
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", nodes[tc.target].Addr())
			if err != nil {
				t.Errorf("%s: dial: %v", tc.name, err)
				return
			}
			defer c.Close()
			for _, f := range tc.send {
				if err := writeFrame(c, f); err != nil {
					t.Errorf("%s: write: %v", tc.name, err)
					return
				}
			}
			if _, err := c.Write(tc.raw); err != nil {
				t.Errorf("%s: write: %v", tc.name, err)
				return
			}
			// Whatever the node says first (only the duplicate gets an
			// answer: the FShmAck decline), the stream must then end.
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.Copy(io.Discard, c); err != nil {
				t.Errorf("%s: connection not closed by the node: %v", tc.name, err)
			}
		}()
	}
	wg.Wait()

	for r, n := range nodes {
		for peer, p := range n.peerTable() {
			if star := r == 0 || peer == 0; (p != nil) != (star && peer != r) {
				t.Errorf("rank %d's table entry for rank %d changed: %v", r, peer, p != nil)
			} else if p != nil && p.failed.Load() {
				t.Errorf("rank %d's star edge to rank %d went down", r, peer)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the rejected connections", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	lazyExchange(t, nodes, 1, 2)
	closeAll()
	poolSettles(t, before)
}

// TestHandleInboundSilentSocket: a connection that never sends its first
// frame is closed at the handshake deadline — not before, not never —
// and the node it idled on still runs. Parallel (with the other test
// that rides out a ten-second timer) so the wait overlaps.
func TestHandleInboundSilentSocket(t *testing.T) {
	if testing.Short() {
		t.Skip("rides out the 10s handshake deadline")
	}
	t.Parallel()
	nodes := startWorld(t, 2)
	c, err := net.Dial("tcp", nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.SetReadDeadline(start.Add(lazyHandshakeTimeout + 5*time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("silent connection not closed by the node: %v", err)
	}
	if held := time.Since(start); held < lazyHandshakeTimeout-time.Second {
		t.Fatalf("silent connection closed after %v, before the %v deadline", held, lazyHandshakeTimeout)
	}
	exchangeOne(t, nodes)
}
