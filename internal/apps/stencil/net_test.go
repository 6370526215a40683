package stencil

import (
	"math"
	"sync"
	"testing"

	"repro/internal/charm"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

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

// TestNetBackendMatchesSim is the distributed acceptance oracle: the same
// validated configuration on a live two-rank socket mesh must produce,
// cell for cell, the bit-identical field the simulator produces. Each
// rank holds only its own block (the rest is NaN in the gathered field),
// and the union of the ranks must tile the whole domain.
func TestNetBackendMatchesSim(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	for _, mode := range []Mode{Msg, Ckd} {
		cfg := realOracleConfig(mode)
		simRes := Run(cfg)
		cfg.Backend = charm.NetBackend
		results := runNetWorld(t, nodes, cfg)

		covered := 0
		for rank, res := range results {
			if len(res.Errors) > 0 {
				t.Fatalf("%v rank %d: %v", mode, rank, res.Errors)
			}
			if len(res.Field) != len(simRes.Field) {
				t.Fatalf("%v rank %d: field size %d, sim %d", mode, rank, len(res.Field), len(simRes.Field))
			}
			for i, v := range res.Field {
				if math.IsNaN(v) {
					continue // not hosted by this rank
				}
				covered++
				if v != simRes.Field[i] {
					t.Fatalf("%v rank %d: field differs at %d: net %v sim %v", mode, rank, i, v, simRes.Field[i])
				}
			}
		}
		if covered != len(simRes.Field) {
			t.Errorf("%v: ranks covered %d of %d cells", mode, covered, len(simRes.Field))
		}
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
