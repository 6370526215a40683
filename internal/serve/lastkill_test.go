package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// TestNetServeKillAtLastBarrier kills a worker at the last step barrier
// of a served job (the default stencil job has 3 iterations and no
// warmup, so 4 barriers) — the barrier at which the root would Exit. The
// root must abort through the peer-loss path instead, so the daemon
// respawns the rank and reruns the job, with validate checksums
// bit-identical to the healthy baseline. Were the root to exit, its run
// would end clean and the job would fail on the dead rank's missing
// report.
func TestNetServeKillAtLastBarrier(t *testing.T) {
	const world = 3
	var mu sync.Mutex
	nodes := make([]*netrt.Node, world)
	node := func(r int) *netrt.Node { mu.Lock(); defer mu.Unlock(); return nodes[r] }
	env := func(n *netrt.Node) Env {
		return Env{Backend: charm.NetBackend, Net: n, Platform: netmodel.AbeIB,
			KillVia: chaos.KillerFunc(func(r int) error { node(r).Die(); return nil })}
	}
	follow := func(n *netrt.Node) { Follow(env(n), charm.DefaultRecoveryAttempts) }
	respawn := func(rank int) {
		n, err := netrt.Start(netrt.Config{Rank: rank, World: world, Coord: node(0).Addr(), Recover: true})
		if err != nil {
			t.Errorf("respawn rank %d: %v", rank, err)
			return
		}
		mu.Lock()
		nodes[rank] = n
		mu.Unlock()
		go follow(n)
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
	for _, n := range ns[1:] {
		go follow(n)
	}
	srv, err := New(Options{Env: env(ns[0]), QueueDepth: 4, ReportWait: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		AnnounceShutdown(env(node(0)))
	}()

	done := func(j Job) Job {
		t.Helper()
		if j.State != StateDone {
			t.Fatalf("job %d (kill %q) state %s: local %+v workers %+v error %q",
				j.ID, j.Spec.Kill, j.State, j.Local, j.Workers, j.Error)
		}
		return j
	}
	base := checksums(done(submitWait(t, srv, Spec{Kind: "stencil", Validate: true}, time.Minute)))
	killed := done(submitWait(t, srv, Spec{Kind: "stencil", Validate: true, Kill: "1@4"}, 2*time.Minute))
	if got := checksums(killed); len(got) != world || !sameChecksums(got, base) {
		t.Fatalf("checksums after a kill at the last barrier %v, baseline %v", got, base)
	}
	after := done(submitWait(t, srv, Spec{Kind: "stencil", Validate: true}, time.Minute))
	if got := checksums(after); !sameChecksums(got, base) {
		t.Fatalf("checksums after recovery %v, baseline %v", got, base)
	}
}
