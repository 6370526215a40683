package netrt

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// startWorld brings up an in-process world via the coordinator
// bootstrap, failing the test on any rank's error.
func startWorld(t *testing.T, world int) []*Node {
	return startWorldConfig(t, world, Config{})
}

// startWorldConfig boots an in-process world with extra Config applied
// to every rank and tears it down with the test.
func startWorldConfig(t *testing.T, world int, base Config) []*Node {
	t.Helper()
	nodes, err := StartLocalConfig(world, base)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	t.Cleanup(func() {
		// Every test world is torn down through the safety check (what
		// nettest.CloseAll does for the packages that can import it).
		noFramesAfterHalt(t, nodes)
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// noFramesAfterHalt asserts the protocol's safety property on every node.
func noFramesAfterHalt(t *testing.T, nodes []*Node) {
	t.Helper()
	for i, n := range nodes {
		if late := n.Stats().FramesAfterHalt; late != 0 {
			t.Errorf("rank %d: %d app frames arrived after the termination decision", i, late)
		}
	}
}

// runAll runs every runtime concurrently and waits for all to return.
func runAll(rts []*Runtime) {
	var wg sync.WaitGroup
	for _, rt := range rts {
		rt := rt
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Run()
		}()
	}
	wg.Wait()
}

// awaitDeath waits until the coordinator has observed a rank death
// firsthand — the record Rejoin hands the respawn hook.
func awaitDeath(t *testing.T, coord *Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(coord.DeadRanks()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never observed the death")
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitRespawn waits for an OnRespawn hook to install the replacement
// for rank r, which happens after its Start returns and can trail rank
// 0's Rejoin by a beat. The caller nils nodes[r] (under mu) before the
// Rejoin, so the killed node is never mistaken for its replacement.
func awaitRespawn(t *testing.T, mu *sync.Mutex, nodes []*Node, r int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok := nodes[r] != nil
		mu.Unlock()
		if ok {
			return
		}
		if t.Failed() || time.Now().After(deadline) {
			t.Fatalf("respawn did not install a replacement for rank %d", r)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleProcessWorldIsDegenerate(t *testing.T) {
	n, err := Start(Config{World: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Rank() != 0 || n.World() != 1 || n.IsWorker() {
		t.Fatalf("rank=%d world=%d worker=%v", n.Rank(), n.World(), n.IsWorker())
	}
}

// TestStartRejectsBadConfigs pins the typed validation gate: every
// impossible configuration must come back as an ErrBadConfig-wrapping
// NetError from Start itself — not a late panic, not a hung bootstrap —
// and must not be Recoverable (there is no world to rejoin).
func TestStartRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero world", Config{Rank: 0, World: 0, Coord: "127.0.0.1:0"}},
		{"negative world", Config{Rank: 0, World: -3, Coord: "127.0.0.1:0"}},
		{"rank below -1", Config{Rank: -2, World: 2, Coord: "127.0.0.1:0"}},
		{"rank at world", Config{Rank: 2, World: 2, Coord: "127.0.0.1:0"}},
		{"rank past world", Config{Rank: 7, World: 2, Coord: "127.0.0.1:0"}},
		{"out-of-range static rank", Config{Rank: 5, World: 2, Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}}},
		{"self-spawn rank with static peers", Config{Rank: -1, World: 2, Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}}},
		{"negative eager threshold", Config{Rank: 0, World: 2, Coord: "127.0.0.1:0", EagerMax: -1}},
		{"negative shm ring", Config{Rank: 0, World: 2, Coord: "127.0.0.1:0", ShmRingBytes: -4096}},
		{"negative shm arena", Config{Rank: 0, World: 2, Coord: "127.0.0.1:0", ShmArenaBytes: -1}},
		{"rank 0 without coord or peers", Config{Rank: 0, World: 2}},
		{"worker without coord or peers", Config{Rank: 1, World: 2}},
		{"world/peers mismatch", Config{Rank: 0, World: 3, Peers: []string{"a:1", "b:2"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Start(tc.cfg)
			if err == nil {
				n.Close()
				t.Fatal("accepted")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("got %v, want ErrBadConfig", err)
			}
			var ne *NetError
			if !errors.As(err, &ne) || ne.Op != "config" || ne.Peer != -1 {
				t.Fatalf("got %v, want a typed config NetError with Peer -1", err)
			}
			if Recoverable([]error{err}) {
				t.Fatal("config rejection must not be Recoverable")
			}
		})
	}
}

// TestMessagingAndQuiescence bounces messages between two ranks — one
// chain under the eager threshold, one over it (rendezvous) — and checks
// that both runtimes reach distributed quiescence with every hop
// delivered and payloads intact.
func TestMessagingAndQuiescence(t *testing.T) {
	nodes := startWorld(t, 2)
	rts := make([]*Runtime, 2)
	for i, n := range nodes {
		rt, err := n.NewRuntime(4)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		rts[i] = rt
	}
	big := bytes.Repeat([]byte{0x5A}, DefaultEagerMax*2) // forces rendezvous
	var delivered [2]atomic.Int64
	var badPayload atomic.Int64
	for i := range rts {
		i := i
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) {
			env := e
			rt.Enqueue(env.DstPE, func() {
				delivered[i].Add(1)
				if len(env.Data) > 0 && !bytes.Equal(env.Data, big) {
					badPayload.Add(1)
				}
				if env.Tag > 0 {
					rt.SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: env.DstPE,
						DstPE: env.SrcPE, Tag: env.Tag - 1, Data: env.Data})
				}
				// env.Data aliases the pooled wire buffer; release it
				// only after the last use (the ownership contract of
				// SetDeliver).
				bufpool.Put(pooled)
			})
		})
	}
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 2, Tag: 5, Data: big})
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 1, DstPE: 3, Tag: 2})
	})
	runAll(rts)
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d errors: %v", i, errs)
		}
	}
	// Tag chain 5 -> 0 lands 6 times, tag chain 2 -> 0 lands 3 times.
	if got := delivered[0].Load() + delivered[1].Load(); got != 9 {
		t.Errorf("delivered %d messages, want 9", got)
	}
	if badPayload.Load() != 0 {
		t.Errorf("%d deliveries carried a corrupted rendezvous payload", badPayload.Load())
	}
}

// TestBroadcast fans one cast out of rank 0; every other rank must see
// it exactly once (local fan-out is the receiver's business).
func TestBroadcast(t *testing.T) {
	nodes := startWorld(t, 3)
	rts := make([]*Runtime, 3)
	for i, n := range nodes {
		rt, err := n.NewRuntime(3)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		rts[i] = rt
	}
	var casts [3]atomic.Int64
	for i := range rts {
		i := i
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) {
			if pooled != nil {
				t.Errorf("rank %d: broadcast delivered a pooled payload (fan-out has no release point)", i)
			}
			if e.Kind != EnvCast || e.Array != 1 {
				t.Errorf("rank %d: unexpected envelope %+v", i, e)
			}
			rt.Enqueue(rt.Lo(), func() { casts[i].Add(1) })
		})
	}
	rts[0].Enqueue(0, func() {
		rts[0].SendCast(&Env{Kind: EnvCast, Array: 1, EP: 2, DstPE: -1})
	})
	runAll(rts)
	if casts[0].Load() != 0 || casts[1].Load() != 1 || casts[2].Load() != 1 {
		t.Errorf("cast deliveries = [%d %d %d], want [0 1 1]",
			casts[0].Load(), casts[1].Load(), casts[2].Load())
	}
}

// TestPutSink ships a one-sided put across the process boundary and
// checks the handle id and raw bytes arrive intact, with the receiver
// holding the run open via the put credit until its detection completes.
func TestPutSink(t *testing.T) {
	nodes := startWorld(t, 2)
	rts := make([]*Runtime, 2)
	for i, n := range nodes {
		rt, err := n.NewRuntime(2)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		rts[i] = rt
		rt.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
	}
	payload := bytes.Repeat([]byte{0xC3}, 256)
	var gotID atomic.Int64
	var gotPayload []byte
	gotID.Store(-1)
	rt1 := rts[1]
	rt1.SetPutSink(func(id int64, b []byte) {
		// The ckdirect sink's credit discipline: hold the run open before
		// acknowledging receipt, release on the receiving PE.
		rt1.PutIssued()
		gotID.Store(id)
		gotPayload = append([]byte(nil), b...)
		rt1.Enqueue(1, func() { rt1.PutDetected() })
	})
	rts[0].Enqueue(0, func() { rts[0].SendPut(1, 7, payload) })
	runAll(rts)
	if gotID.Load() != 7 {
		t.Fatalf("put handle id = %d, want 7", gotID.Load())
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("put payload corrupted in flight")
	}
}

// TestSequentialGenerations reuses one mesh for two back-to-back runs,
// exercising the run-generation buffering that keeps a fast rank's
// next-run frames out of a slow rank's previous run.
func TestSequentialGenerations(t *testing.T) {
	nodes := startWorld(t, 2)
	for gen := 0; gen < 2; gen++ {
		rts := make([]*Runtime, 2)
		for i, n := range nodes {
			rt, err := n.NewRuntime(2)
			if err != nil {
				t.Fatalf("gen %d rank %d: %v", gen, i, err)
			}
			rts[i] = rt
		}
		var got atomic.Int64
		for i := range rts {
			rt := rts[i]
			rt.SetDeliver(func(e Env, pooled []byte) {
				env := e
				rt.Enqueue(env.DstPE, func() { got.Add(1); bufpool.Put(pooled) })
			})
		}
		rts[0].Enqueue(0, func() {
			rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Tag: gen})
		})
		runAll(rts)
		for i, rt := range rts {
			if errs := rt.Errors(); len(errs) > 0 {
				t.Fatalf("gen %d rank %d errors: %v", gen, i, errs)
			}
		}
		if got.Load() != 1 {
			t.Fatalf("gen %d delivered %d messages, want 1", gen, got.Load())
		}
	}
}

// TestPeerLossAbortsRun kills the transport under a run that cannot
// otherwise finish (rank 1 never starts, so termination never completes)
// and checks rank 0's Run unwinds with a typed NetError instead of
// hanging in quiescence detection.
func TestPeerLossAbortsRun(t *testing.T) {
	nodes := startWorld(t, 2)
	rt0, err := nodes[0].NewRuntime(2)
	if err != nil {
		t.Fatal(err)
	}
	rt0.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
	if _, err := nodes[1].NewRuntime(2); err != nil {
		t.Fatal(err)
	}
	// Sever the socket the hard way — no Close handshake, as a killed
	// process would.
	go func() {
		time.Sleep(50 * time.Millisecond)
		nodes[1].peers[0].conn.Close()
	}()
	done := make(chan struct{})
	go func() {
		rt0.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("rank 0 hung after losing its peer")
	}
	if !rt0.Aborted() {
		t.Fatal("run not marked aborted")
	}
	errs := rt0.Errors()
	if len(errs) == 0 {
		t.Fatal("no errors recorded")
	}
	var ne *NetError
	if !errors.As(errs[0], &ne) {
		t.Fatalf("error %v (%T) is not a NetError", errs[0], errs[0])
	}
	if ne.Peer != 1 {
		t.Errorf("NetError names peer %d, want 1", ne.Peer)
	}
	// The node remembers the dead peer: the next run aborts immediately.
	rtNext, err := nodes[0].NewRuntime(2)
	if err != nil {
		t.Fatal(err)
	}
	if !rtNext.Aborted() {
		t.Error("next run on a dead mesh did not pre-abort")
	}
}

// TestStaleDepartureIgnoredAfterRejoin holds rank 0's handler for a
// departure from the old mesh — an FBye, or the FLeave of rank 1's Rejoin
// teardown — after dispatch's lock-free epoch check has passed it. Both
// ranks then Rejoin, and only then does the handler run. The departure
// belongs to the torn-down mesh, so the next run must start and finish
// instead of aborting at attach.
func TestStaleDepartureIgnoredAfterRejoin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		depart func(nodes []*Node)
	}{
		{"bye", func(nodes []*Node) {
			nodes[1].sendOpen(0, &Frame{Type: FBye, A: 1, Payload: []byte("rank 1 aborted")})
		}},
		{"leave", func([]*Node) {}}, // rank 1's Rejoin sends it
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startWorldConfig(t, 2, Config{Recover: true})
			entered, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
			var held atomic.Bool
			hold := func() func() {
				if !held.CompareAndSwap(false, true) {
					return func() {} // only the first departure is held
				}
				close(entered)
				<-release
				return func() { close(finished) }
			}
			nodes[0].handlerHold.Store(&hold)
			var releaseOnce sync.Once
			releaseHandler := func() { releaseOnce.Do(func() { close(release) }) }
			t.Cleanup(releaseHandler)

			tc.depart(nodes)
			rejoined1 := make(chan error, 1)
			go func() { rejoined1 <- nodes[1].Rejoin() }()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("rank 0 never handled the departure")
			}
			if err := nodes[0].Rejoin(); err != nil {
				t.Fatalf("rank 0 rejoin: %v", err)
			}
			if err := <-rejoined1; err != nil {
				t.Fatalf("rank 1 rejoin: %v", err)
			}
			releaseHandler()
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				t.Fatal("held handler never finished")
			}
			nodes[0].mu.Lock()
			dead := nodes[0].deadErr
			nodes[0].mu.Unlock()
			if dead != nil {
				// The next run would abort at attach (and its peer hang).
				t.Fatalf("the rejoined mesh inherited the old mesh's departure: %v", dead)
			}
			exchangeOne(t, nodes)
		})
	}
}
