package stencil

import (
	"errors"
	"math"
	"testing"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netrt"
	"repro/internal/trace"
)

// lbConfig is a skewed validate-mode configuration with balancing on:
// the first half of the chare order wastes 4x extra compute, and a
// greedy round runs every second barrier.
func lbConfig(mode Mode) Config {
	cfg := realOracleConfig(mode)
	cfg.Skew = 4
	cfg.LBEvery = 2
	cfg.LBStrategy = "greedy"
	return cfg
}

// TestLBSimMigratesAndPreservesPhysics is the subsystem's core oracle:
// a skewed run with load balancing must actually migrate chares (the
// imbalance is engineered to demand it) and still finish with the
// bit-identical field, residual, and checksum of the same skewed run
// with balancing off — migration moves work, never physics.
func TestLBSimMigratesAndPreservesPhysics(t *testing.T) {
	for _, mode := range []Mode{Msg, Ckd} {
		base := lbConfig(mode)
		base.LBEvery = 0
		base.LBStrategy = ""
		baseRes := Run(base)

		res := Run(lbConfig(mode))
		if len(res.Errors) > 0 {
			t.Fatalf("%v: balanced run failed: %v", mode, res.Errors)
		}
		if res.Counters[trace.CntLBMigrations] == 0 {
			t.Fatalf("%v: skewed run performed no migrations — LB untested", mode)
		}
		if res.Counters[trace.CntLBRounds] == 0 {
			t.Fatalf("%v: no balancing rounds ran", mode)
		}
		if mode == Ckd && res.Counters[trace.CntLBRehomedRecv] == 0 {
			t.Fatalf("%v: migrations rehomed no receive endpoints", mode)
		}
		if res.Residual != baseRes.Residual {
			t.Errorf("%v: residual differs: lb %v base %v", mode, res.Residual, baseRes.Residual)
		}
		if res.FieldSum != baseRes.FieldSum {
			t.Errorf("%v: checksum differs: lb %v base %v", mode, res.FieldSum, baseRes.FieldSum)
		}
		for i := range baseRes.Field() {
			if res.Field()[i] != baseRes.Field()[i] {
				t.Fatalf("%v: field differs at %d: lb %v base %v", mode, i, res.Field()[i], baseRes.Field()[i])
			}
		}
	}
}

// TestLBSimReducesSpread checks the strategy did its actual job: the
// measured max/mean load spread after the planned moves is below the
// spread before them (both accumulate per round in the counters).
func TestLBSimReducesSpread(t *testing.T) {
	res := Run(lbConfig(Ckd))
	if len(res.Errors) > 0 {
		t.Fatal(res.Errors)
	}
	before := res.Counters[trace.CntLBSpreadBefore]
	after := res.Counters[trace.CntLBSpreadAfter]
	if before == 0 {
		t.Fatal("no spread recorded")
	}
	if after >= before {
		t.Fatalf("balancing did not reduce the load spread: before %d after %d (permille, summed over rounds)", before, after)
	}
}

// TestLBSimIsDeterministic pins the simulator guarantee: two identical
// skewed balanced runs agree on every counter — including the
// migration count and rehome bookkeeping.
func TestLBSimIsDeterministic(t *testing.T) {
	a := Run(lbConfig(Ckd))
	b := Run(lbConfig(Ckd))
	if len(a.Errors)+len(b.Errors) > 0 {
		t.Fatal(a.Errors, b.Errors)
	}
	if len(a.Counters) != len(b.Counters) {
		t.Fatalf("counter sets differ: %v vs %v", a.Counters, b.Counters)
	}
	for k, v := range a.Counters {
		if b.Counters[k] != v {
			t.Errorf("counter %s differs across identical runs: %d vs %d", k, v, b.Counters[k])
		}
	}
	if a.TotalEvents != b.TotalEvents {
		t.Errorf("event counts differ: %d vs %d", a.TotalEvents, b.TotalEvents)
	}
}

// TestLBRealBackendMatchesSim migrates for real: chares move between
// live worker goroutines, CkDirect channels rehome through scheduler
// tasks, and the field must still match the simulator bit for bit.
// (Wall-clock load reports make the real plan nondeterministic, so only
// physics is compared — and at skew 4 with half the chares hot, any
// sane plan migrates something.)
func TestLBRealBackendMatchesSim(t *testing.T) {
	for _, mode := range []Mode{Msg, Ckd} {
		cfg := lbConfig(mode)
		simRes := Run(cfg)
		cfg.Backend = charm.RealBackend
		realRes := Run(cfg)
		if len(realRes.Errors) > 0 {
			t.Fatalf("%v: real backend errors: %v", mode, realRes.Errors)
		}
		if realRes.Counters[trace.CntLBRounds] == 0 {
			t.Fatalf("%v: no balancing rounds ran", mode)
		}
		if simRes.Residual != realRes.Residual {
			t.Errorf("%v: residual differs: sim %v real %v", mode, simRes.Residual, realRes.Residual)
		}
		for i := range simRes.Field() {
			if simRes.Field()[i] != realRes.Field()[i] {
				t.Fatalf("%v: field differs at %d: sim %v real %v", mode, i, simRes.Field()[i], realRes.Field()[i])
			}
		}
	}
}

// TestLBNetMigratesAcrossRanks is the distributed acceptance test: on a
// two-rank mesh the skew lands entirely on rank 0's PEs, so balancing
// must ship chare state across the wire (FMove), rebind channels on
// both sides, and still tile the domain with bit-identical cells.
func TestLBNetMigratesAcrossRanks(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, mode := range []Mode{Msg, Ckd} {
		cfg := lbConfig(mode)
		// Live load reports are wall-clock; the spin must dominate the
		// per-dispatch overhead even with the race detector's slowdown,
		// or no plan reliably moves anything (~200µs per hot chare).
		cfg.Skew = 200
		simRes := Run(cfg)
		cfg.Backend = charm.NetBackend
		results := runNetWorld(t, nodes, cfg)
		for rank, res := range results {
			if len(res.Errors) > 0 {
				t.Fatalf("%v rank %d: %v", mode, rank, res.Errors)
			}
		}
		if results[0].Counters[trace.CntLBMigrations] == 0 {
			t.Fatalf("%v: root planned no migrations", mode)
		}
		covered := 0
		for rank, res := range results {
			for i, v := range res.Field() {
				if math.IsNaN(v) {
					continue
				}
				covered++
				if v != simRes.Field()[i] {
					t.Fatalf("%v rank %d: field differs at %d: net %v sim %v", mode, rank, i, v, simRes.Field()[i])
				}
			}
		}
		if covered != len(simRes.Field()) {
			t.Errorf("%v: ranks covered %d of %d cells after migration", mode, covered, len(simRes.Field()))
		}
	}
}

// TestLBChaosPreservesPhysics runs skewed balanced configurations under
// CPU noise and 1% fault injection: migrations interleave with
// retransmits and recovery, and the field must still match the quiet
// unbalanced baseline bit for bit.
func TestLBChaosPreservesPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	quiet := func(mode Mode) Config {
		cfg := Config{
			Platform: lbConfig(mode).Platform,
			Mode:     mode,
			PEs:      4, Virtualization: 2,
			NX: 10, NY: 8, NZ: 6,
			Iters: 4, Warmup: 0, Validate: true,
			// The chare blocks here are tiny, so the per-element base load
			// is communication-dominated; a mild skew would leave no move
			// that shrinks the pair maximum (greedy would correctly plan
			// nothing). Skew hard enough that compute dominates.
			Skew: 30,
		}
		return cfg
	}
	for _, mode := range []Mode{Msg, Ckd} {
		base := Run(quiet(mode))
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := quiet(mode)
			cfg.LBEvery = 2
			cfg.LBStrategy = "greedy"
			cfg.Chaos = chaos.Hostile(seed, 0.01)
			res := Run(cfg)
			if len(res.Errors) > 0 {
				t.Fatalf("%v seed %d: chaos LB run failed: %v", mode, seed, res.Errors)
			}
			if res.Counters[trace.CntLBMigrations] == 0 {
				t.Fatalf("%v seed %d: no migrations under chaos — recovery interplay untested", mode, seed)
			}
			for i := range base.Field() {
				if res.Field()[i] != base.Field()[i] {
					t.Fatalf("%v seed %d: chaos+LB changed the physics at cell %d", mode, seed, i)
				}
			}
		}
	}
}

// TestCheckRefusesCkptWithLB: checkpointing together with load balancing
// is refused before a run starts, with ErrCkptWithLB; either one alone
// passes. The combination used to be accepted and then fail at restore,
// because a restore rebuilds birth placement.
func TestCheckRefusesCkptWithLB(t *testing.T) {
	base := Config{PEs: 6, Virtualization: 2, NX: 16, NY: 16, NZ: 8, LBStrategy: "greedy"}
	ckpt := &charm.CkptOptions{Dir: t.TempDir(), Every: 3}
	both := base
	both.Ckpt, both.LBEvery = ckpt, 2
	if err := both.Check(); !errors.Is(err, ErrCkptWithLB) {
		t.Fatalf("Check with Ckpt and LBEvery = %v, want ErrCkptWithLB", err)
	}
	ckptOnly, lbOnly := base, base
	ckptOnly.Ckpt = ckpt
	lbOnly.LBEvery = 2
	for name, cfg := range map[string]Config{"ckpt": ckptOnly, "lb": lbOnly} {
		if err := cfg.Check(); err != nil {
			t.Errorf("%s alone refused: %v", name, err)
		}
	}
}
