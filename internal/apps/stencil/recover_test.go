package stencil

import (
	"math"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/ckpt"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// recoveryConfig checkpoints every 2 barriers; with Warmup 1 + Iters 3
// the run has 5 steps, so a kill after step 3 rolls back to the commit
// at step 2 and replays 3..5.
func recoveryConfig(mode Mode, dir string) Config {
	cfg := realOracleConfig(mode)
	cfg.Ckpt = &charm.CkptOptions{Dir: dir, Every: 2}
	return cfg
}

// TestRecoveryKillRejoin is the tentpole scenario end to end, in
// process: a 3-rank mesh loses rank 1 to the kill -9 chaos tier after
// step 3, the survivors roll back to the step-2 checkpoint, the victim
// is respawned through the OnRespawn hook, and the re-run completes
// with a final field bit-identical to the unfaulted simulator run.
func TestRecoveryKillRejoin(t *testing.T) {
	for _, mode := range []Mode{Msg, Ckd} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { testRecoveryKillRejoin(t, mode) })
	}
}

func testRecoveryKillRejoin(t *testing.T, mode Mode) {
	const world = 3
	dir := t.TempDir()

	simCfg := realOracleConfig(mode)
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
		cfg := recoveryConfig(mode, dir)
		cfg.Backend = charm.NetBackend
		cfg.Net = n
		cfg.Kill = kill
		var res Result
		errs := charm.RunWithRecovery(n, charm.DefaultRecoveryAttempts, func() []error {
			res = Run(cfg)
			return res.Errors
		})
		out <- outcome{rank, res, errs}
	}
	// The in-process analogue of the coordinator reaping and re-execing a
	// dead child: bring up a fresh Node for the killed rank (it dials the
	// coordinator's retained listener) and re-run the whole driver on it.
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

	// world original drivers + one respawned driver report in; the
	// victim's first incarnation must fail, everyone else must recover.
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

	// The recovery really used the checkpoint machinery: a commit record
	// naming a positive step survives the run.
	if step, ok, err := ckpt.ReadCommit(dir, world); err != nil || !ok || step <= 0 {
		t.Fatalf("commit record after recovery: step=%d ok=%v err=%v", step, ok, err)
	}

	// Bit-identical acceptance: the union of the recovered ranks' fields
	// must tile the domain and match the unfaulted sim run exactly.
	covered := 0
	for _, o := range finals {
		if len(o.res.Field) != len(simRes.Field) {
			t.Fatalf("rank %d: field size %d, sim %d", o.rank, len(o.res.Field), len(simRes.Field))
		}
		for i, v := range o.res.Field {
			if math.IsNaN(v) {
				continue // not hosted by this rank
			}
			covered++
			if v != simRes.Field[i] {
				t.Fatalf("rank %d: field differs at %d after recovery: net %v sim %v", o.rank, i, v, simRes.Field[i])
			}
		}
	}
	if covered != len(simRes.Field) {
		t.Errorf("recovered ranks covered %d of %d cells", covered, len(simRes.Field))
	}
}
