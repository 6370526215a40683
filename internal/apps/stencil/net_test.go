package stencil

import (
	"sync"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// realOracleConfig is the small validated configuration the put-path,
// balancing and recovery tests share.
func realOracleConfig(mode Mode) Config {
	return Config{
		Platform: netmodel.AbeIB,
		Mode:     mode,
		PEs:      4,
		NX:       16, NY: 16, NZ: 8,
		Virtualization: 2,
		Iters:          3,
		Warmup:         1,
		Validate:       true,
	}
}

// runNetWorld executes one stencil configuration on every rank of an
// in-process world concurrently and returns the per-rank results.
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

// TestNetShmPutsGoDirect counts the validated ckd stencil's cross-rank
// puts by path: over shm at least 99 % land by direct deposit (only a put
// that outruns its channel's registration may go framed), over TCP none
// can.
func TestNetShmPutsGoDirect(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shmOff bool
	}{{"shm", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, err := netrt.StartLocalConfig(2, netrt.Config{ShmOff: tc.shmOff})
			if err != nil {
				t.Fatal(err)
			}
			defer nettest.CloseAll(t, nodes)
			cfg := realOracleConfig(Ckd)
			cfg.Backend = charm.NetBackend
			cfg.Iters = 300
			for rank, res := range runNetWorld(t, nodes, cfg) {
				if len(res.Errors) > 0 {
					t.Fatalf("rank %d: %v", rank, res.Errors)
				}
			}
			var direct, framed int64
			for _, n := range nodes {
				s := n.Stats()
				direct += s.PutsDirect
				framed += s.PutsFramed
			}
			switch {
			case direct+framed == 0:
				t.Fatal("no cross-rank puts counted")
			case tc.shmOff && direct != 0:
				t.Fatalf("TCP world sent %d puts direct", direct)
			case !tc.shmOff && direct*100 < 99*(direct+framed):
				t.Fatalf("shm world sent %d of %d puts direct, want >= 99%%", direct, direct+framed)
			}
		})
	}
}

// TestNetBackendResultShape checks the rank-0/worker split of a net run:
// rank 0 owns the barrier timeline and a positive iteration time, the
// worker reports no timing but a validated local block.
func TestNetBackendResultShape(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	cfg := realOracleConfig(Ckd)
	cfg.Backend = charm.NetBackend
	results := runNetWorld(t, nodes, cfg)
	for rank, res := range results {
		if len(res.Errors) > 0 {
			t.Fatalf("rank %d: %v", rank, res.Errors)
		}
	}
	if results[0].IterTime <= 0 {
		t.Errorf("rank 0 iteration time %v, want positive wall-clock", results[0].IterTime)
	}
	if results[1].IterTime != 0 {
		t.Errorf("worker rank reported iteration time %v", results[1].IterTime)
	}
}
