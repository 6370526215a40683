package apps_test

import (
	"runtime"
	"testing"

	"repro/internal/apps/matmul"
	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// TestNetWorldAllocatesOneDomain is the storage rule's gate
// (apps.Driver.Storage): a net rank allocates and seeds only the
// elements it hosts, and builds no full-domain answer nobody reads, so
// a validated run over the same PEs and domain allocates about as much
// on a 4-rank world as on a 2-rank one. A rank that held every element
// would make the world's bytes grow with its rank count. The bytes are
// the process-wide runtime.MemStats.TotalAlloc across one run of every
// rank, the fewest of three runs after a warm-up.
//
// What every rank keeps by design does grow with the rank count: the
// element descriptors and one CkDirect handle per channel in the world
// (SPMD wiring), about 125 KB per rank for the stencil's 32 chares. The
// stencil's domain (4.5 times the benchmark's 32x32x16, and within the
// serial-reference cache, which every rank of the process shares) makes
// its data outweigh them.
func TestNetWorldAllocatesOneDomain(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(cfg any) view
		cfg  any
	}{
		{"stencil", func(cfg any) view { return view{Outcome: stencil.Run(cfg.(stencil.Config)).Outcome} },
			stencil.Config{Platform: netmodel.AbeIB, Mode: stencil.Ckd, PEs: 8, Virtualization: 4,
				NX: 48, NY: 48, NZ: 24, Iters: 3, Warmup: 1, Validate: true}},
		{"matmul", func(cfg any) view { return view{Outcome: matmul.Run(cfg.(matmul.Config)).Outcome} },
			matmul.Config{Platform: netmodel.AbeIB, Mode: matmul.Ckd, PEs: 8, N: 64, Iters: 2, Warmup: 1, Validate: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			two, four := worldAlloc(t, 2, c.run, c.cfg), worldAlloc(t, 4, c.run, c.cfg)
			t.Logf("bytes per run: %d on 2 ranks, %d on 4 (%.2fx)", two, four, float64(four)/float64(two))
			if float64(four) > 1.3*float64(two) {
				t.Errorf("a 4-rank world allocates %d bytes per run, %.2fx the 2-rank world's %d (bound 1.3x)",
					four, float64(four)/float64(two), two)
			}
		})
	}
}

// worldAlloc returns the fewest bytes the whole process allocated across
// one validated run of cfg on every rank of an in-process world of the
// given size, over three runs after a warm-up (which fills the oracle
// caches and the buffer pools).
func worldAlloc(t *testing.T, ranks int, run func(any) view, cfg any) uint64 {
	t.Helper()
	nodes, err := netrt.StartLocal(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	cfg = with(cfg, "Backend", charm.NetBackend)
	var best uint64
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		views := runWorld(nodes, run, cfg)
		runtime.ReadMemStats(&after)
		for rank, v := range views {
			clean(t, v, "%d ranks, rank %d", ranks, rank)
		}
		if n := after.TotalAlloc - before.TotalAlloc; i == 1 || i > 1 && n < best {
			best = n
		}
	}
	return best
}
