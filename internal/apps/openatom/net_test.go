package openatom

import (
	"math"
	"sync"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// netOracleConfig is the validated configuration the distributed
// equivalence test shares with the simulator oracle.
func netOracleConfig(mode Mode) Config {
	return Config{
		Platform: netmodel.AbeIB,
		Mode:     mode,
		Scope:    FullStep,
		PEs:      4,
		NStates:  16,
		NPlanes:  2,
		Grain:    4,
		Points:   32,
		Steps:    2,
		Warmup:   1,
		Validate: true,
	}
}

// runNetWorld executes one configuration on every rank of an in-process
// world concurrently and returns the per-rank results.
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

// TestNetBackendMatchesSim is the production-proxy distributed oracle:
// the same validated configuration on a live two-rank socket mesh —
// GS→PC point transfers over the wire, the lambda feedback through the
// orthonormalization reduction spanning ranks — must produce, element
// for element, the bit-identical coefficient sums the simulator
// produces. Each rank reports only its hosted elements (the rest NaN),
// and the union of the ranks must cover the whole GS array.
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
			if len(res.Field) != len(simRes.Field) {
				t.Fatalf("%v rank %d: field size %d, sim %d", mode, rank, len(res.Field), len(simRes.Field))
			}
			for i, v := range res.Field {
				if math.IsNaN(v) {
					continue // not hosted by this rank
				}
				covered[i] = true
				if v != simRes.Field[i] {
					t.Fatalf("%v rank %d: element %d differs: net %v sim %v",
						mode, rank, i, v, simRes.Field[i])
				}
			}
		}
		if len(covered) != len(simRes.Field) {
			t.Errorf("%v: ranks covered %d of %d elements", mode, len(covered), len(simRes.Field))
		}
		// The overlap reduction value lives on rank 0 and must match too.
		if results[0].Overlap != simRes.Overlap {
			t.Errorf("%v: overlap differs: net %v sim %v", mode, results[0].Overlap, simRes.Overlap)
		}
	}
}
