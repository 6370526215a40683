package pingpong

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// runNetWorld executes one pingpong configuration on every rank of an
// in-process world concurrently, as the separate OS processes of a real
// launch would, and returns the per-rank results.
func runNetWorld(t *testing.T, nodes []*netrt.Node, cfg Config) []Result {
	t.Helper()
	results := make([]Result, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Net = n
			results[i] = Run(c)
		}()
	}
	wg.Wait()
	return results
}

// TestNetBackendPingPong runs both Charm-runtime modes across a live
// two-rank socket mesh, at an eager size and at a rendezvous size. The
// run itself verifies payload integrity on each hosting rank
// (checkPayload panics on corruption); one mesh is reused across all
// four runs, exercising run-generation turnover.
func TestNetBackendPingPong(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	for _, mode := range []Mode{CharmMsg, CkDirect} {
		for _, size := range []int{64, 4 * netrt.DefaultEagerMax} {
			results := runNetWorld(t, nodes, Config{
				Platform: netmodel.AbeIB,
				Mode:     mode,
				Size:     size,
				Iters:    25,
				Backend:  charm.NetBackend,
			})
			for rank, res := range results {
				if len(res.Errors) > 0 {
					t.Fatalf("%v size %d rank %d: %v", mode, size, rank, res.Errors)
				}
			}
			if results[0].RTT <= 0 {
				t.Fatalf("%v size %d: non-positive RTT %v", mode, size, results[0].RTT)
			}
			if results[1].RTT != 0 {
				t.Fatalf("%v size %d: worker rank reported an RTT", mode, size)
			}
		}
	}
}

// TestNetBackendPeerLossSurfacesNetError is the failure-path acceptance
// check: hard-killing the put-side peer's connection mid-run must
// surface a typed *netrt.NetError in the surviving rank's Result.Errors
// — not hang inside a termination detection that can never complete.
func TestNetBackendPeerLossSurfacesNetError(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	// Enough round trips that the run is still in flight when the wire
	// is cut ~30ms in (loopback trips are tens of microseconds).
	cfg := Config{
		Platform: netmodel.AbeIB,
		Mode:     CkDirect,
		Size:     4096,
		Iters:    200000,
		Backend:  charm.NetBackend,
	}
	kill := time.AfterFunc(30*time.Millisecond, func() { nodes[0].Sever(1) })
	defer kill.Stop()
	done := make(chan []Result, 1)
	go func() { done <- runNetWorld(t, nodes, cfg) }()
	var results []Result
	select {
	case results = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung after peer loss — the abort never reached quiescence")
	}
	if len(results[0].Errors) == 0 {
		t.Fatal("rank 0 reported no errors after losing its peer")
	}
	var ne *netrt.NetError
	for _, e := range results[0].Errors {
		if errors.As(e, &ne) {
			break
		}
	}
	if ne == nil {
		t.Fatalf("rank 0 errors carry no *netrt.NetError: %v", results[0].Errors)
	}
	if ne.Rank != 0 || ne.Peer != 1 {
		t.Errorf("NetError names rank %d peer %d, want rank 0 peer 1", ne.Rank, ne.Peer)
	}
}

// TestNetBackendNeedsNode pins the guard: the net backend without a
// started node is a programming error.
func TestNetBackendNeedsNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for net backend without a node")
		}
	}()
	Run(Config{Platform: netmodel.AbeIB, Mode: CharmMsg, Size: 64, Iters: 1,
		Backend: charm.NetBackend})
}

// TestLiveMsgArmShipsItsPayload is the payload-honesty guard, next to
// the app: on the live backends the message arm must move cfg.Size bytes
// each way, as the CkDirect arm does. The run itself panics (checkMsg)
// if a message arrives without its payload, so completing is most of
// the assertion; the counters pin the accounting — at least 2 x size
// charm.bytes per round trip, summed over the ranks.
func TestLiveMsgArmShipsItsPayload(t *testing.T) {
	const size, iters = 4096, 50
	cfg := Config{Platform: netmodel.AbeIB, Mode: CharmMsg, Size: size, Iters: iters}
	check := func(backend string, results ...Result) {
		t.Helper()
		var bytes int64
		for rank, res := range results {
			if len(res.Errors) > 0 {
				t.Fatalf("%s rank %d: %v", backend, rank, res.Errors)
			}
			bytes += res.Counters["charm.bytes"]
		}
		if perTrip := bytes / iters; perTrip < 2*size {
			t.Errorf("%s: charm.bytes per round trip = %d, want >= %d", backend, perTrip, 2*size)
		}
	}

	cfg.Backend = charm.RealBackend
	check("real", Run(cfg))

	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	cfg.Backend = charm.NetBackend
	check("net", runNetWorld(t, nodes, cfg)...)
	for rank, n := range nodes {
		if late := n.Stats().FramesAfterHalt; late != 0 {
			t.Errorf("rank %d: %d app frames arrived after the termination decision", rank, late)
		}
	}
}
