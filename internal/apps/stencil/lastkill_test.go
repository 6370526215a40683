package stencil

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// TestRecoveryKillAtLastBarrier kills rank 1 of a 3-rank mesh at the
// run's last step barrier — the barrier at which the root would Exit. The
// root must not exit over the dead rank: the run aborts through the
// peer-loss path, the victim is respawned, and the rerun from the last
// checkpoint ends with the unfaulted simulator's field, bit for bit. Were
// the root to exit anyway, the survivors would finish "clean" and the
// respawned rank's run this test waits for would never start.
func TestRecoveryKillAtLastBarrier(t *testing.T) {
	for _, mode := range []Mode{Msg, Ckd} {
		t.Run(mode.String(), func(t *testing.T) {
			const world = 3
			dir := t.TempDir()
			simRes := Run(realOracleConfig(mode))
			last := simRes.Warmup + simRes.Iters + 1

			var mu sync.Mutex
			nodes := make([]*netrt.Node, world)
			node := func(r int) *netrt.Node { mu.Lock(); defer mu.Unlock(); return nodes[r] }
			kill := &chaos.Kill{Rank: 1, Step: last, Via: chaos.KillerFunc(func(r int) error {
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
				cfg.Backend, cfg.Net, cfg.Kill = charm.NetBackend, n, kill
				var res Result
				errs := charm.RunWithRecovery(n, charm.DefaultRecoveryAttempts, func() []error {
					res = Run(cfg)
					return res.Errors
				})
				out <- outcome{rank, res, errs}
			}
			respawn := func(rank int) {
				n, err := netrt.Start(netrt.Config{Rank: rank, World: world, Coord: node(0).Addr(), Recover: true})
				if err != nil {
					out <- outcome{rank: rank, errs: []error{err}}
					return
				}
				mu.Lock()
				nodes[rank] = n
				mu.Unlock()
				drive(rank, n)
			}
			ns, err := netrt.StartLocalConfig(world, netrt.Config{Recover: true, OnRespawn: respawn})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			copy(nodes, ns)
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
			for len(finals) < world {
				var o outcome
				select {
				case o = <-out:
				case <-time.After(time.Minute):
					t.Fatalf("%d of %d ranks finished (victim failed: %v): the survivors ended over the dead rank",
						len(finals), world, victimFailed)
				}
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
			covered := 0
			for _, o := range finals {
				for i, v := range o.res.Field {
					if math.IsNaN(v) {
						continue
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
		})
	}
}
