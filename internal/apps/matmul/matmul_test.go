package matmul

import (
	"testing"

	"repro/internal/netmodel"
)

func TestChooseGridNearCubic(t *testing.T) {
	cases := map[int][3]int{
		1:    {1, 1, 1},
		8:    {2, 2, 2},
		64:   {4, 4, 4},
		512:  {8, 8, 8},
		4096: {16, 16, 16},
		256:  {8, 8, 4},
		2048: {16, 16, 8},
	}
	for pes, want := range cases {
		g := chooseGrid(pes)
		if g[0]*g[1]*g[2] != pes {
			t.Errorf("chooseGrid(%d) = %v does not cover exactly", pes, g)
		}
		if g != want {
			t.Errorf("chooseGrid(%d) = %v, want %v", pes, g, want)
		}
	}
}

// TestValidateProductCorrect: both transports must produce the exact
// reference product.
func TestValidateProductCorrect(t *testing.T) {
	for _, shape := range []struct{ pes, warmup int }{{8, 0}, {4, 1}} {
		for _, mode := range []Mode{Msg, Ckd} {
			res := Run(Config{
				Platform: netmodel.AbeIB,
				Mode:     mode,
				PEs:      shape.pes,
				N:        32,
				Iters:    2, Warmup: shape.warmup,
				Validate: true,
			})
			if res.MaxError > 1e-9 {
				t.Errorf("%d PEs %v: max error %g", shape.pes, mode, res.MaxError)
			}
		}
	}
}

func TestValidateNonCubicGrid(t *testing.T) {
	res := Run(Config{
		Platform: netmodel.SurveyorBGP,
		Mode:     Ckd,
		PEs:      16, // grid 4x2x2
		N:        64,
		Iters:    1, Warmup: 1,
		Validate: true,
	})
	if res.Grid != [3]int{4, 2, 2} {
		t.Fatalf("grid %v", res.Grid)
	}
	if res.MaxError > 1e-9 {
		t.Fatalf("max error %g", res.MaxError)
	}
}

// TestCkdBeatsMsg: Figure 3's core claim on both machines.
func TestCkdBeatsMsg(t *testing.T) {
	for _, plat := range []*netmodel.Platform{netmodel.AbeIB, netmodel.SurveyorBGP} {
		msg, ckd, pct := Improvement(Config{
			Platform: plat,
			PEs:      64,
			N:        2048,
			Iters:    2, Warmup: 1,
		})
		if ckd.IterTime >= msg.IterTime {
			t.Errorf("%s: ckd %v >= msg %v", plat.Name, ckd.IterTime, msg.IterTime)
		}
		if pct <= 0 || pct > 60 {
			t.Errorf("%s: improvement %.1f%% implausible", plat.Name, pct)
		}
	}
}

// TestImprovementGrowsWithProcessors: the paper attributes the widening
// gap to per-processor message counts growing as the cube root of P.
func TestImprovementGrowsWithProcessors(t *testing.T) {
	pct := func(pes int) float64 {
		_, _, p := Improvement(Config{
			Platform: netmodel.SurveyorBGP,
			PEs:      pes,
			N:        2048,
			Iters:    2, Warmup: 1,
		})
		return p
	}
	small, large := pct(64), pct(512)
	if large <= small {
		t.Fatalf("gap did not widen: %.2f%% at 64, %.2f%% at 512", small, large)
	}
}

// TestExecutionTimeDropsWithProcessors: strong scaling — more PEs, less
// time per multiply, for both variants.
func TestExecutionTimeDropsWithProcessors(t *testing.T) {
	for _, mode := range []Mode{Msg, Ckd} {
		t64 := Run(Config{Platform: netmodel.AbeIB, Mode: mode, PEs: 64, N: 2048, Iters: 2, Warmup: 1})
		t512 := Run(Config{Platform: netmodel.AbeIB, Mode: mode, PEs: 512, N: 2048, Iters: 2, Warmup: 1})
		if t512.IterTime >= t64.IterTime {
			t.Errorf("%v: no strong scaling: %v at 64, %v at 512", mode, t64.IterTime, t512.IterTime)
		}
	}
}

func TestSinglePE(t *testing.T) {
	res := Run(Config{
		Platform: netmodel.AbeIB, Mode: Msg, PEs: 1, N: 16,
		Iters: 1, Warmup: 0, Validate: true,
	})
	if res.MaxError > 1e-9 {
		t.Fatalf("single chare product wrong: %g", res.MaxError)
	}
}
