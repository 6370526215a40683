package pingpong

import (
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// TestRecoveryKillRejoin covers the checkpoint-free recovery path: a
// 3-rank mesh loses rank 1 to the kill -9 chaos tier after 3 round
// trips, the survivors rebuild the mesh with a respawned replacement,
// and the re-run restarts the benchmark from scratch (pingpong takes no
// checkpoints) and completes with its payload checks intact.
func TestRecoveryKillRejoin(t *testing.T) {
	for _, mode := range []Mode{CharmMsg, CkDirect} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { testRecoveryKillRejoin(t, mode) })
	}
}

func testRecoveryKillRejoin(t *testing.T, mode Mode) {
	const world = 3

	var (
		mu    sync.Mutex
		nodes []*netrt.Node
	)
	node := func(r int) *netrt.Node { mu.Lock(); defer mu.Unlock(); return nodes[r] }
	setNode := func(r int, n *netrt.Node) { mu.Lock(); nodes[r] = n; mu.Unlock() }

	kill := &chaos.Kill{Rank: 1, Step: 3, Via: chaos.KillerFunc(func(r int) error {
		node(r).Die()
		return nil
	})}

	type outcome struct {
		rank int
		res  Result
		errs []error
	}
	out := make(chan outcome, world+1)
	drive := func(rank int, n *netrt.Node) {
		cfg := Config{
			Platform: netmodel.AbeIB,
			Mode:     mode,
			Size:     64,
			Iters:    10,
			Backend:  charm.NetBackend,
			Net:      n,
			Kill:     kill,
		}
		var res Result
		errs := charm.RunWithRecovery(n, charm.DefaultRecoveryAttempts, func() []error {
			res = Run(cfg)
			return res.Errors
		})
		out <- outcome{rank, res, errs}
	}
	respawn := func(rank int) {
		n, err := netrt.Start(netrt.Config{
			Rank: rank, World: world, Coord: node(0).Addr(), Recover: true,
		})
		if err != nil {
			t.Errorf("respawn rank %d: %v", rank, err)
			out <- outcome{rank: rank, errs: []error{err}}
			return
		}
		setNode(rank, n)
		drive(rank, n)
	}

	ns, err := netrt.StartLocalConfig(world, netrt.Config{Recover: true, OnRespawn: respawn})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	nodes = ns
	mu.Unlock()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		nettest.CloseAll(t, nodes)
	}()

	for r := 0; r < world; r++ {
		go drive(r, ns[r])
	}

	victimFailed := false
	var finals []outcome
	for i := 0; i < world+1; i++ {
		o := <-out
		if o.rank == kill.Rank && len(o.errs) > 0 && !victimFailed {
			victimFailed = true
			continue
		}
		if len(o.errs) > 0 {
			t.Fatalf("rank %d did not recover: %v", o.rank, o.errs)
		}
		finals = append(finals, o)
	}
	if !victimFailed {
		t.Fatal("the killed rank's first incarnation reported no error")
	}
	for _, o := range finals {
		if o.rank == 0 && o.res.RTT <= 0 {
			t.Errorf("rank 0 recovered with non-positive RTT %v", o.res.RTT)
		}
		if o.rank != 0 && o.res.RTT != 0 {
			t.Errorf("worker rank %d reported an RTT after recovery", o.rank)
		}
	}
}
