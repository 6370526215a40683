package matmul

import (
	"math"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/ckpt"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// netOracleConfig is the validated configuration the recovery test
// reruns.
func netOracleConfig(mode Mode) Config {
	return Config{
		Platform: netmodel.AbeIB,
		Mode:     mode,
		PEs:      4,
		N:        32,
		Iters:    2,
		Warmup:   1,
		Validate: true,
	}
}

// TestRecoveryKillRejoin: a 3-rank mesh checkpointing every 2 barriers
// (Warmup 1 + Iters 2 = 4 steps) loses rank 1 to the kill -9 chaos tier
// after step 3, rolls back to the step-2 commit, respawns the victim
// through the OnRespawn hook, and the re-run's product is bit-identical
// to the unfaulted simulator run.
func TestRecoveryKillRejoin(t *testing.T) {
	for _, mode := range []Mode{Msg, Ckd} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { testRecoveryKillRejoin(t, mode) })
	}
}

func testRecoveryKillRejoin(t *testing.T, mode Mode) {
	const world = 3
	dir := t.TempDir()

	simCfg := netOracleConfig(mode)
	simRes := Run(simCfg)

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
		cfg := netOracleConfig(mode)
		cfg.Backend = charm.NetBackend
		cfg.Net = n
		cfg.Ckpt = &charm.CkptOptions{Dir: dir, Every: 2}
		cfg.Kill = kill
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

	if step, ok, err := ckpt.ReadCommit(dir, world); err != nil || !ok || step <= 0 {
		t.Fatalf("commit record after recovery: step=%d ok=%v err=%v", step, ok, err)
	}

	covered := 0
	for _, o := range finals {
		if len(o.res.C()) != len(simRes.C()) {
			t.Fatalf("rank %d: product size %d, sim %d", o.rank, len(o.res.C()), len(simRes.C()))
		}
		for i, v := range o.res.C() {
			if math.IsNaN(v) {
				continue // not hosted by this rank
			}
			covered++
			if v != simRes.C()[i] {
				t.Fatalf("rank %d: C differs at %d after recovery: net %v sim %v", o.rank, i, v, simRes.C()[i])
			}
		}
	}
	if covered != len(simRes.C()) {
		t.Errorf("recovered ranks covered %d of %d elements", covered, len(simRes.C()))
	}
}
