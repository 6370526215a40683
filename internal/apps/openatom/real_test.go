package openatom

import (
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
)

// TestRealBackendPCOnly exercises the PC-only scope (the §5.2 arm
// broadcast path) on the real backend.
func TestRealBackendPCOnly(t *testing.T) {
	cfg := Config{
		Platform: netmodel.AbeIB,
		Mode:     Ckd,
		Scope:    PCOnly,
		PEs:      2,
		NStates:  8,
		NPlanes:  2,
		Grain:    4,
		Points:   16,
		Steps:    2,
		Validate: true,
		Backend:  charm.RealBackend,
	}
	res := Run(cfg)
	if len(res.Errors) > 0 {
		t.Fatalf("real backend errors: %v", res.Errors)
	}
	if res.Checksum == 0 {
		t.Fatal("validate-mode checksum unexpectedly zero")
	}
}
