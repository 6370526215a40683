package stencil

import (
	"math"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
)

func TestChooseGridCoversAndStaysDivisible(t *testing.T) {
	cases := []struct {
		want, nx, ny, nz int
	}{
		{8, 64, 64, 32}, {64, 1024, 1024, 512}, {2048, 1024, 1024, 512},
		{32768, 1024, 1024, 512}, {1, 16, 16, 16},
	}
	for _, c := range cases {
		g := chooseGrid(c.want, c.nx, c.ny, c.nz)
		if g[0]*g[1]*g[2] < c.want {
			t.Errorf("chooseGrid(%d) = %v too small", c.want, g)
		}
		if c.nx/g[0] < 1 || c.ny/g[1] < 1 || c.nz/g[2] < 1 {
			t.Errorf("chooseGrid(%d, %d,%d,%d) = %v splits below one cell",
				c.want, c.nx, c.ny, c.nz, g)
		}
	}
}

func TestChooseGridNearCubicBlocks(t *testing.T) {
	g := chooseGrid(2048, 1024, 1024, 512)
	bx, by, bz := 1024/g[0], 1024/g[1], 512/g[2]
	max := maxInt(bx, maxInt(by, bz))
	min := minInt(bx, minInt(by, bz))
	if max > 2*min {
		t.Fatalf("blocks %dx%dx%d too skewed (grid %v)", bx, by, bz, g)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSplitEvenAndUneven(t *testing.T) {
	total := 0
	for i := 0; i < 3; i++ {
		size, off := split(10, 3, i)
		if off != total {
			t.Fatalf("part %d offset %d, want %d", i, off, total)
		}
		total += size
	}
	if total != 10 {
		t.Fatalf("parts sum to %d", total)
	}
}

// TestValidateMatchesSerialReference: both distributed variants must
// reproduce the serial Jacobi field exactly (same FP operation order per
// cell).
func TestValidateMatchesSerialReference(t *testing.T) {
	const nx, ny, nz, iters = 12, 10, 8, 4
	ref := SerialReference(nx, ny, nz, iters+1) // +1: warmup iteration also updates
	for _, mode := range []Mode{Msg, Ckd} {
		res := Run(Config{
			Platform: netmodel.AbeIB,
			Mode:     mode,
			PEs:      4, Virtualization: 2,
			NX: nx, NY: ny, NZ: nz,
			Iters: iters, Warmup: 0, Validate: true,
		})
		if len(res.Field) != len(ref) {
			t.Fatalf("%v: field size %d", mode, len(res.Field))
		}
		for i := range ref {
			if res.Field[i] != ref[i] {
				t.Fatalf("%v: field[%d] = %g, reference %g", mode, i, res.Field[i], ref[i])
			}
		}
	}
}

// TestMsgAndCkdComputeIdenticalFields on a bigger grid with more PEs.
func TestMsgAndCkdComputeIdenticalFields(t *testing.T) {
	cfg := Config{
		Platform: netmodel.SurveyorBGP,
		PEs:      8, Virtualization: 4,
		NX: 16, NY: 16, NZ: 16,
		Iters: 3, Warmup: 1, Validate: true,
	}
	cfg.Mode = Msg
	msg := Run(cfg)
	cfg.Mode = Ckd
	ckd := Run(cfg)
	if msg.FieldSum != ckd.FieldSum {
		t.Fatalf("field sums differ: msg %g ckd %g", msg.FieldSum, ckd.FieldSum)
	}
	if msg.Residual != ckd.Residual {
		t.Fatalf("residuals differ: msg %g ckd %g", msg.Residual, ckd.Residual)
	}
	for i := range msg.Field {
		if msg.Field[i] != ckd.Field[i] {
			t.Fatalf("fields diverge at %d", i)
		}
	}
}

// TestResidualDecreases: Jacobi with zero boundary smooths the field, so
// the residual shrinks across iterations.
func TestResidualShrinksOverIterations(t *testing.T) {
	short := Run(Config{
		Platform: netmodel.AbeIB, Mode: Msg,
		PEs: 2, Virtualization: 2,
		NX: 12, NY: 12, NZ: 12,
		Iters: 1, Warmup: 0, Validate: true,
	})
	long := Run(Config{
		Platform: netmodel.AbeIB, Mode: Msg,
		PEs: 2, Virtualization: 2,
		NX: 12, NY: 12, NZ: 12,
		Iters: 8, Warmup: 0, Validate: true,
	})
	if long.Residual >= short.Residual {
		t.Fatalf("residual did not shrink: %g -> %g", short.Residual, long.Residual)
	}
}

// TestCkdFasterThanMsg: the core claim of Figure 2, at a modest scale.
func TestCkdFasterThanMsg(t *testing.T) {
	for _, plat := range []*netmodel.Platform{netmodel.AbeIB, netmodel.SurveyorBGP} {
		msg, ckd, pct := Improvement(Config{
			Platform: plat,
			PEs:      16, Virtualization: 8,
			NX: 256, NY: 256, NZ: 128,
			Iters: 3, Warmup: 1,
		})
		if ckd.IterTime >= msg.IterTime {
			t.Errorf("%s: ckd %v >= msg %v", plat.Name, ckd.IterTime, msg.IterTime)
		}
		if pct <= 0 || pct >= 50 {
			t.Errorf("%s: improvement %.1f%% outside plausible band", plat.Name, pct)
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

// TestImprovementGrowsWithScale: the paper's headline stencil trend —
// percentage gains increase with processor count (fixed total domain,
// fixed virtualization ratio means finer granularity at scale).
func TestImprovementGrowsWithScale(t *testing.T) {
	run := func(pes int) float64 {
		_, _, pct := Improvement(Config{
			Platform: netmodel.AbeIB,
			PEs:      pes, Virtualization: 8,
			NX: 512, NY: 512, NZ: 256,
			Iters: 2, Warmup: 1,
		})
		return pct
	}
	small, large := run(16), run(128)
	if large <= small {
		t.Fatalf("improvement did not grow: %.2f%% at 16 PEs, %.2f%% at 128 PEs", small, large)
	}
}

// TestSerialReferenceConserves: with all-zero boundaries, values stay in
// [0, 1) and the sum decreases (diffusion with absorbing boundary).
func TestSerialReferenceBehaviour(t *testing.T) {
	f0 := SerialReference(8, 8, 8, 0)
	f5 := SerialReference(8, 8, 8, 5)
	sum := func(f []float64) float64 {
		s := 0.0
		for _, v := range f {
			s += v
		}
		return s
	}
	if !(sum(f5) < sum(f0)) {
		t.Fatalf("absorbing boundary did not reduce mass: %g -> %g", sum(f0), sum(f5))
	}
	for _, v := range f5 {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			t.Fatalf("value %g out of range", v)
		}
	}
}
