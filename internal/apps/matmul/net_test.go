package matmul

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
		PEs:      4,
		N:        32,
		Iters:    2,
		Warmup:   1,
		Validate: true,
	}
}

// runNetWorld executes one matmul configuration on every rank of an
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
// produce, element for element, the bit-identical product the simulator
// produces. Each rank holds only its hosted strips (the rest is NaN in
// the gathered matrix), and the union of the ranks must tile C.
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

		covered := 0
		for rank, res := range results {
			if len(res.Errors) > 0 {
				t.Fatalf("%v rank %d: %v", mode, rank, res.Errors)
			}
			if len(res.C) != len(simRes.C) {
				t.Fatalf("%v rank %d: product size %d, sim %d", mode, rank, len(res.C), len(simRes.C))
			}
			for i, v := range res.C {
				if math.IsNaN(v) {
					continue // not hosted by this rank
				}
				covered++
				if v != simRes.C[i] {
					t.Fatalf("%v rank %d: C differs at %d: net %v sim %v", mode, rank, i, v, simRes.C[i])
				}
			}
		}
		if covered != len(simRes.C) {
			t.Errorf("%v: ranks covered %d of %d elements", mode, covered, len(simRes.C))
		}
	}

	// Unvalidated ckd still moves real bytes on a live backend: the
	// channels must be built on real buffers, not virtual regions.
	cfg := netOracleConfig(Ckd)
	cfg.Validate = false
	cfg.Backend = charm.NetBackend
	for rank, res := range runNetWorld(t, nodes, cfg) {
		if len(res.Errors) > 0 {
			t.Fatalf("unvalidated ckd rank %d: %v", rank, res.Errors)
		}
	}
}
