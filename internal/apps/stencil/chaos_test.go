package stencil

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/netmodel"
)

// chaosRun executes a validate-mode stencil under the given adversity
// scenario, in the configuration the apps conformance suite's faults and
// noise columns compare bit for bit with the quiet run.
func chaosRun(t *testing.T, mode Mode, sc *chaos.Scenario) Result {
	t.Helper()
	cfg := Config{
		Platform: netmodel.AbeIB,
		Mode:     mode,
		PEs:      4, Virtualization: 2,
		NX: 10, NY: 8, NZ: 6,
		Iters: 3, Warmup: 0, Validate: true,
		Chaos: sc,
	}
	res := Run(cfg)
	if sc != nil && len(res.Errors) > 0 {
		t.Fatalf("mode %v: chaos run failed to recover: %v", mode, res.Errors[0])
	}
	return res
}

// TestChaosNoiseChangesTiming sanity-checks that the noise actually
// perturbs the schedule (otherwise the conformance suite's noise column
// proves nothing).
func TestChaosNoiseChangesTiming(t *testing.T) {
	quiet := chaosRun(t, Ckd, nil)
	noisy := chaosRun(t, Ckd, chaos.NoiseOnly(12345))
	if quiet.IterTime == noisy.IterTime {
		t.Fatal("noise injection had no timing effect — chaos tests are vacuous")
	}
}

// TestChaosUnprotectedFaultsSurfaceAsErrors pins the diagnostic for the
// footgun of injecting faults with every recovery mechanism off: the run
// stalls, and instead of a panic (quiet runs) or silence, Result.Errors
// explains what was lost and how to recover it.
func TestChaosUnprotectedFaultsSurfaceAsErrors(t *testing.T) {
	sc := chaos.Hostile(3, 0.05)
	sc.Reliable = false
	sc.Watchdog = nil
	sc.Noise = nil
	cfg := Config{
		Platform: netmodel.AbeIB,
		Mode:     Msg,
		PEs:      4, Virtualization: 2,
		NX: 10, NY: 8, NZ: 6,
		Iters: 3, Warmup: 0, Validate: true,
		Chaos: sc,
	}
	res := Run(cfg)
	if len(res.Errors) == 0 {
		t.Fatal("unprotected faulted run surfaced no error")
	}
	if !strings.Contains(res.Errors[0].Error(), "no recovery") {
		t.Fatalf("unhelpful diagnostic: %v", res.Errors[0])
	}
}

// TestChaosFaultsAreInjected sanity-checks the fault plane actually fired
// during the hostile scenario (otherwise recovery was never exercised).
func TestChaosFaultsAreInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	res := chaosRun(t, Ckd, chaos.Hostile(2, 0.01))
	if res.Counters["net.dropped"] == 0 {
		t.Fatal("hostile scenario dropped nothing — recovery untested")
	}
}
