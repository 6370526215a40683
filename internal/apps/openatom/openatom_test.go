package openatom

import (
	"math"
	"testing"

	"repro/internal/netmodel"
)

// small returns a validation-scale configuration.
func small(plat *netmodel.Platform, mode Mode, scope Scope) Config {
	return Config{
		Platform: plat,
		Mode:     mode,
		Scope:    scope,
		PEs:      8,
		NStates:  16, NPlanes: 2, Grain: 4, Points: 32,
		Steps: 2, Warmup: 1,
		Validate: true,
	}
}

// TestAllModesAgreeOnPhysics: the overlap reduction and the final
// coefficient checksum must be identical across transports — the CkDirect
// data path delivers exactly the same numbers.
func TestAllModesAgreeOnPhysics(t *testing.T) {
	for _, scope := range []Scope{FullStep, PCOnly} {
		base := Run(small(netmodel.AbeIB, Msg, scope))
		for _, mode := range []Mode{Ckd, CkdNaive} {
			got := Run(small(netmodel.AbeIB, mode, scope))
			if got.Overlap != base.Overlap {
				t.Errorf("%v/%v: overlap %g != msg %g", mode, scope, got.Overlap, base.Overlap)
			}
			if got.Checksum != base.Checksum {
				t.Errorf("%v/%v: checksum %g != msg %g", mode, scope, got.Checksum, base.Checksum)
			}
		}
	}
}

func TestOverlapIsNontrivial(t *testing.T) {
	res := Run(small(netmodel.AbeIB, Msg, PCOnly))
	if res.Overlap == 0 || math.IsNaN(res.Overlap) {
		t.Fatalf("overlap = %v", res.Overlap)
	}
	if res.Checksum == 0 || math.IsNaN(res.Checksum) {
		t.Fatalf("checksum = %v", res.Checksum)
	}
}

// TestChannelCount: the proxy creates (2*nblocks - 1) channels per GS
// element, the scaling the paper summarizes as "4 x nstates x nplanes"
// for its two-block decomposition.
func TestChannelCount(t *testing.T) {
	cfg := small(netmodel.AbeIB, Ckd, PCOnly)
	res := Run(cfg)
	nblocks := cfg.NStates / cfg.Grain
	want := cfg.NStates * cfg.NPlanes * (2*nblocks - 1)
	if res.Channels != want {
		t.Fatalf("channels = %d, want %d", res.Channels, want)
	}
}

// TestCkdBeatsMsgPCOnly: the PairCalculator-only study shows the largest
// CkDirect advantage (paper: up to 14% on Abe).
func TestCkdBeatsMsgPCOnly(t *testing.T) {
	for _, plat := range []*netmodel.Platform{netmodel.AbeIB, netmodel.SurveyorBGP} {
		cfg := Config{
			Platform: plat, Scope: PCOnly, PEs: 32,
			NStates: 64, NPlanes: 8, Grain: 16, Points: 512,
			Steps: 2, Warmup: 1,
		}
		msg, ckd, pct := Improvement(cfg)
		if ckd.StepTime >= msg.StepTime {
			t.Errorf("%s: ckd %v >= msg %v", plat.Name, ckd.StepTime, msg.StepTime)
		}
		if pct <= 0 || pct > 70 {
			t.Errorf("%s: improvement %.1f%% implausible", plat.Name, pct)
		}
	}
}

// TestFullStepGainSmallerThanPCOnly: with the other phases included, the
// relative gain shrinks (paper: ~4% full vs ~14% PC-only on Abe).
func TestFullStepGainSmallerThanPCOnly(t *testing.T) {
	base := Config{
		Platform: netmodel.AbeIB, PEs: 32, CoresPerNode: 2,
		NStates: 64, NPlanes: 8, Grain: 16, Points: 512,
		Steps: 2, Warmup: 1,
	}
	pcCfg := base
	pcCfg.Scope = PCOnly
	_, _, pcPct := Improvement(pcCfg)
	fullCfg := base
	fullCfg.Scope = FullStep
	_, _, fullPct := Improvement(fullCfg)
	if fullPct >= pcPct {
		t.Fatalf("full-step gain %.1f%% not smaller than PC-only %.1f%%", fullPct, pcPct)
	}
	if fullPct <= 0 {
		t.Fatalf("full-step gain %.1f%% not positive", fullPct)
	}
}

// TestNaivePollingPathology reproduces §5.2: with thousands of channels
// per processor and plain Ready after the multiply, the polling tax makes
// the CkDirect version *slower* than messages; ReadyMark/ReadyPollQ
// windowing restores the win.
func TestNaivePollingPathology(t *testing.T) {
	cfg := Config{
		Platform: netmodel.AbeIB, Scope: FullStep, PEs: 16,
		NStates: 128, NPlanes: 8, Grain: 16, Points: 256,
		Steps: 2, Warmup: 1,
	}
	cfg.Mode = Msg
	msg := Run(cfg)
	cfg.Mode = CkdNaive
	naive := Run(cfg)
	cfg.Mode = Ckd
	opt := Run(cfg)

	if naive.StepTime <= msg.StepTime {
		t.Errorf("naive polling not pathological: naive %v <= msg %v", naive.StepTime, msg.StepTime)
	}
	if opt.StepTime >= msg.StepTime {
		t.Errorf("optimized ckdirect lost to messages: %v >= %v", opt.StepTime, msg.StepTime)
	}
	if opt.StepTime >= naive.StepTime {
		t.Errorf("windowing did not help: opt %v >= naive %v", opt.StepTime, naive.StepTime)
	}
}

// TestNoPollingPathologyOnBGP: Blue Gene/P detects completion via
// callbacks, so the naive pattern costs nothing there (Ready calls are
// no-ops, §2.2).
func TestNoPollingPathologyOnBGP(t *testing.T) {
	cfg := Config{
		Platform: netmodel.SurveyorBGP, Scope: FullStep, PEs: 16,
		NStates: 128, NPlanes: 8, Grain: 16, Points: 256,
		Steps: 2, Warmup: 1,
	}
	cfg.Mode = CkdNaive
	naive := Run(cfg)
	cfg.Mode = Ckd
	opt := Run(cfg)
	if naive.StepTime != opt.StepTime {
		t.Fatalf("BG/P: naive %v != optimized %v (Ready should be a no-op)", naive.StepTime, opt.StepTime)
	}
}

// TestCoresPerNodeOverride: the Abe OpenAtom study used 2 cores/node;
// fewer cores per node means more inter-node traffic and a different
// step time than the default 8.
func TestCoresPerNodeOverride(t *testing.T) {
	cfg := Config{
		Platform: netmodel.AbeIB, Mode: Msg, Scope: PCOnly, PEs: 16,
		NStates: 32, NPlanes: 4, Grain: 8, Points: 256,
		Steps: 2, Warmup: 1,
	}
	def := Run(cfg)
	cfg.CoresPerNode = 2
	two := Run(cfg)
	if two.StepTime == def.StepTime {
		t.Fatal("cores-per-node override had no effect")
	}
	if two.StepTime < def.StepTime {
		t.Fatalf("2 cores/node should not be faster: %v < %v", two.StepTime, def.StepTime)
	}
}
