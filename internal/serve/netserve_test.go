package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// checksums flattens a finished job's per-rank checksums for equality
// comparison across runs.
func checksums(j Job) map[int]string {
	out := map[int]string{}
	if j.Local != nil {
		out[j.Local.Rank] = j.Local.Checksum
	}
	for _, w := range j.Workers {
		out[w.Rank] = w.Checksum
	}
	return out
}

func sameChecksums(a, b map[int]string) bool {
	if len(a) != len(b) {
		return false
	}
	for r, c := range a {
		if b[r] != c {
			return false
		}
	}
	return true
}

// TestShutdownAnnounceThenCloseEndsEveryFollower is ckserve's exit
// order: rank 0 announces the shutdown and closes its node at once. On a
// shm edge the announce rides the ring and the goodbye after it rides
// TCP, so each follower must read the announce before the goodbye's EOF
// stops its ring reader — and return nil, not wait for ever.
func TestShutdownAnnounceThenCloseEndsEveryFollower(t *testing.T) {
	const world, rounds = 3, 10
	for _, shmOff := range []bool{false, true} {
		for i := 0; i < rounds; i++ {
			nodes, err := netrt.StartLocalConfig(world, netrt.Config{ShmOff: shmOff})
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, world-1)
			for _, n := range nodes[1:] {
				go func() { errs <- Follow(Env{Backend: charm.NetBackend, Net: n, Platform: netmodel.AbeIB}, 1) }()
			}
			AnnounceShutdown(Env{Backend: charm.NetBackend, Net: nodes[0], Platform: netmodel.AbeIB})
			if err := nodes[0].Close(); err != nil {
				t.Fatal(err)
			}
			for r := 1; r < world; r++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatalf("shmOff=%v round %d: follower: %v", shmOff, i, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("shmOff=%v round %d: %d of %d followers returned after announce + Close", shmOff, i, r-1, world-1)
				}
			}
			nettest.CloseAll(t, nodes[1:])
		}
	}
}

// TestNetServeJobsAndKillRecovery is the daemon's tentpole scenario in
// process: a 3-rank serving mesh runs a stream of jobs, loses a worker
// rank to the kill -9 chaos tier mid-job, recovers by respawning the
// rank and rerunning the job, and keeps serving — with every validate
// checksum bit-identical before, during and after the fault.
func TestNetServeJobsAndKillRecovery(t *testing.T) {
	const world = 3

	var (
		mu    sync.Mutex
		nodes []*netrt.Node
	)
	node := func(r int) *netrt.Node { mu.Lock(); defer mu.Unlock(); return nodes[r] }
	setNode := func(r int, n *netrt.Node) { mu.Lock(); nodes[r] = n; mu.Unlock() }

	killer := chaos.KillerFunc(func(r int) error {
		node(r).Die()
		return nil
	})
	env := func(n *netrt.Node) Env {
		return Env{Backend: charm.NetBackend, Net: n, Platform: netmodel.AbeIB, KillVia: killer}
	}

	// followExited counts orderly follower exits; the killed rank's
	// first incarnation never exits (its node is dead), so at shutdown
	// we expect exactly the two live followers.
	followExited := make(chan int, world+1)
	follow := func(rank int, n *netrt.Node) {
		if err := Follow(env(n), charm.DefaultRecoveryAttempts); err == nil {
			followExited <- rank
		}
	}
	// The in-process analogue of the coordinator re-execing a dead
	// child: a fresh Node dials rank 0's retained listener and a fresh
	// follower loop serves on it.
	respawn := func(rank int) {
		n, err := netrt.Start(netrt.Config{
			Rank: rank, World: world, Coord: node(0).Addr(), Recover: true,
		})
		if err != nil {
			t.Errorf("respawn rank %d: %v", rank, err)
			return
		}
		setNode(rank, n)
		go follow(rank, n)
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
	for r := 1; r < world; r++ {
		go follow(r, ns[r])
	}

	srv, err := New(Options{Env: env(ns[0]), QueueDepth: 8, ReportWait: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	requireDone := func(j Job) Job {
		t.Helper()
		if j.State != StateDone {
			t.Fatalf("job %d (%s, kill %q) state %s: local %+v workers %+v error %q",
				j.ID, j.Spec.Kind, j.Spec.Kill, j.State, j.Local, j.Workers, j.Error)
		}
		return j
	}

	// Baseline checksums on the healthy mesh, with the buffer pool
	// accounted for: every frame buffer the job stream gets must come
	// back (or be deliberately dropped) once the jobs drain.
	poolBefore := bufpool.Default.Stats()
	baseline := requireDone(submitWait(t, srv, Spec{Kind: "stencil", Validate: true}, time.Minute))
	base := checksums(baseline)
	if len(base) != world {
		t.Fatalf("baseline reported %d ranks, want %d: %v", len(base), world, base)
	}
	requireDone(submitWait(t, srv, Spec{Kind: "fem", Validate: true}, time.Minute))
	requireDone(submitWait(t, srv, Spec{Kind: "matmul", Validate: true}, time.Minute))
	requireDone(submitWait(t, srv, Spec{Kind: "pingpong"}, time.Minute))
	requirePoolBalance(t, poolBefore)

	// Kill rank 1 mid-job: the daemon must recover (respawn + rerun)
	// and the rerun must reproduce the baseline bit for bit.
	killed := requireDone(submitWait(t, srv,
		Spec{Kind: "stencil", Validate: true, Kill: "1@2"}, 2*time.Minute))
	if got := checksums(killed); !sameChecksums(got, base) {
		t.Fatalf("post-recovery checksums %v differ from baseline %v", got, base)
	}

	// The mesh keeps serving after the fault, still bit-identical.
	after := requireDone(submitWait(t, srv, Spec{Kind: "stencil", Validate: true}, time.Minute))
	if got := checksums(after); !sameChecksums(got, base) {
		t.Fatalf("post-kill checksums %v differ from baseline %v", got, base)
	}
	requireDone(submitWait(t, srv, Spec{Kind: "fem", Validate: true}, time.Minute))

	// Orderly shutdown: both live followers (the survivor and the
	// respawned rank) exit on the announcement.
	srv.Close()
	AnnounceShutdown(env(node(0)))
	for i := 0; i < world-1; i++ {
		select {
		case <-followExited:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d followers exited after shutdown announcement", i)
		}
	}
}
