package fem

import (
	"math"
	"sync"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// netOracleConfig is the validated configuration the cross-backend
// equivalence tests share.
func netOracleConfig(mode Mode) Config {
	return Config{
		Platform: netmodel.AbeIB,
		Mode:     mode,
		PEs:      4, Virtualization: 2,
		NX: 16, NY: 16,
		Iters:    3,
		Warmup:   1,
		Validate: true,
	}
}

// runNetWorld executes one fem configuration on every rank of an
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

// TestNetBackendMatchesSim is the distributed acceptance oracle: the
// same validated configuration on a live two-rank socket mesh must
// produce, vertex for vertex, the bit-identical field the simulator
// produces. Each rank holds only its hosted parts' vertices (the rest
// is NaN in the gathered field), and the union of the ranks must cover
// the whole mesh.
func TestNetBackendMatchesSim(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	for _, mode := range []Mode{Msg, Ckd} {
		cfg := netOracleConfig(mode)
		simRes := Run(cfg)
		cfg.Backend = charm.NetBackend
		results := runNetWorld(t, nodes, cfg)

		covered := make(map[int]bool)
		for rank, res := range results {
			if len(res.Errors) > 0 {
				t.Fatalf("%v rank %d: %v", mode, rank, res.Errors)
			}
			if !res.SharedConsistent {
				t.Fatalf("%v rank %d: hosted parts disagree on shared vertices", mode, rank)
			}
			if len(res.Field) != len(simRes.Field) {
				t.Fatalf("%v rank %d: field size %d, sim %d", mode, rank, len(res.Field), len(simRes.Field))
			}
			for v, val := range res.Field {
				if math.IsNaN(val) {
					continue // not hosted by this rank
				}
				covered[v] = true
				if val != simRes.Field[v] {
					t.Fatalf("%v rank %d: field differs at vertex %d: net %v sim %v",
						mode, rank, v, val, simRes.Field[v])
				}
			}
		}
		if len(covered) != len(simRes.Field) {
			t.Errorf("%v: ranks covered %d of %d vertices", mode, len(covered), len(simRes.Field))
		}
	}
}
