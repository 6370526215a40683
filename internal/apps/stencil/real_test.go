package stencil

import (
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
)

// realOracleConfig is a small validate-mode configuration shared by the
// cross-backend equivalence tests.
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

// TestRealBackendMatchesSim is the acceptance oracle: the same validated
// configuration must produce a bit-identical final field on the simulator
// and on the real goroutine backend — communication order may differ, the
// physics must not.
func TestRealBackendMatchesSim(t *testing.T) {
	for _, mode := range []Mode{Msg, Ckd} {
		cfg := realOracleConfig(mode)
		simRes := Run(cfg)
		cfg.Backend = charm.RealBackend
		realRes := Run(cfg)

		if len(realRes.Errors) > 0 {
			t.Fatalf("%v: real backend errors: %v", mode, realRes.Errors)
		}
		if simRes.Residual != realRes.Residual {
			t.Errorf("%v: residual differs: sim %v real %v", mode, simRes.Residual, realRes.Residual)
		}
		if simRes.FieldSum != realRes.FieldSum {
			t.Errorf("%v: field checksum differs: sim %v real %v", mode, simRes.FieldSum, realRes.FieldSum)
		}
		if len(simRes.Field) != len(realRes.Field) {
			t.Fatalf("%v: field sizes differ: %d vs %d", mode, len(simRes.Field), len(realRes.Field))
		}
		for i := range simRes.Field {
			if simRes.Field[i] != realRes.Field[i] {
				t.Fatalf("%v: field differs at %d: sim %v real %v", mode, i, simRes.Field[i], realRes.Field[i])
			}
		}
	}
}

// TestRealBackendImprovement runs both transports for real on the
// wall-clock and checks completion; timing the gap between them is the
// repo benchmark's job (benchmark/, stencil-shm).
func TestRealBackendImprovement(t *testing.T) {
	cfg := realOracleConfig(Msg)
	cfg.Backend = charm.RealBackend
	msg, ckd, _ := Improvement(cfg)
	if msg.IterTime <= 0 || ckd.IterTime <= 0 {
		t.Fatalf("non-positive wall-clock iteration times: msg %v ckd %v", msg.IterTime, ckd.IterTime)
	}
}
