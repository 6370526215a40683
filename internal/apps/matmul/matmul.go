// Package matmul implements the paper's second application study (§4.2):
// parallel matrix multiplication with a 3-D decomposition for 2-D
// matrices (Agarwal et al.), comparing Charm++ messages with CkDirect.
//
// A chare grid of gx × gy × gz elements computes C = A·B for N×N
// matrices. Chare (x,y,z) is responsible for the partial product
// A[x,z]·B[z,y]. Each iteration:
//
//  1. Replication — every chare sends its shard of A to the chares
//     sharing its (x,z) coordinates and its shard of B to the chares
//     sharing its (z,y) coordinates (the paper's "replicate A along one
//     dimension, B along another").
//  2. Compute — DGEMM on the assembled blocks (charged at the platform's
//     FlopNS; validated with a real linalg.Gemm at small scales).
//  3. C exchange — each chare scatters its partial C in strips to the
//     chares of its (x,y) line, which accumulate their strip of C.
//
// With messages, every arriving shard must be copied into its place in
// the local assembly of A and B — CkDirect instead lands the shard
// directly in the assembly buffer ("a row in the middle of a matrix"),
// which eliminates both the copy and the scheduler dispatch. That is the
// asymmetry behind Figure 3.
package matmul

import (
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the communication variant.
type Mode = apps.Mode

// Matmul variants.
const (
	Msg = apps.Msg
	Ckd = apps.Ckd
)

// Config parameterizes a run.
type Config struct {
	Platform *netmodel.Platform
	Mode     Mode
	PEs      int
	// N is the matrix edge (paper: 2048).
	N int
	// Iters are measured iterations (each is a full multiply); Warmup
	// iterations run first.
	Iters, Warmup int
	// Validate runs real matrices through the pipeline and checks the
	// product (small N only).
	Validate bool
	// Backend selects simulated virtual time (default), real
	// goroutine-per-PE execution, or distributed multi-process execution,
	// both with wall-clock timing. The real and net backends always
	// allocate real payload buffers.
	Backend charm.Backend
	// Net is the started netrt node (required under the net backend).
	Net *netrt.Node
	// Timeline, when set, records Projections-style execution spans.
	Timeline *trace.Timeline
	// Chaos, when set, runs the configuration under adversity (CPU noise,
	// network faults, recovery machinery). Contract violations then land
	// in Result.Errors instead of panicking.
	Chaos *chaos.Scenario
	// Ckpt enables coordinated checkpointing: every Ckpt.Every barriers
	// the world cuts a consistent snapshot, and a fresh Run resumes from
	// the newest committed one.
	Ckpt *charm.CkptOptions
	// Kill, when set, fires the kill -9 chaos tier from the root
	// reduction client after Kill.Step barriers.
	Kill *chaos.Kill
}

// Result reports timing and validation data.
type Result struct {
	Config
	apps.Outcome
	Grid     [3]int
	MaxError float64   // |C - reference| in validate mode
	C        []float64 // assembled product, row-major (validate mode)
}

// Improvement runs both variants and returns the percentage improvement
// of CKD over MSG in iteration time (Figure 3's gap).
func Improvement(cfg Config) (msg, ckd Result, pct float64) {
	return apps.Improvement(func(m Mode) (Result, sim.Time) {
		cfg.Mode = m
		r := Run(cfg)
		return r, r.IterTime
	})
}

// chooseGrid factors pes into a near-cubic (gx, gy, gz) by repeated
// doubling, mirroring how the 3-D algorithm is deployed on power-of-two
// partitions.
func chooseGrid(pes int) [3]int {
	g := [3]int{1, 1, 1}
	for i := 0; g[0]*g[1]*g[2] < pes; i++ {
		g[i%3] *= 2
	}
	return g
}

// Check reports the parameter error Run panics on: a non-positive PE
// count, or an N that the PE grid (or its shard split) does not divide.
func (cfg Config) Check() error {
	if cfg.PEs <= 0 {
		return errors.New("matmul: PEs must be positive")
	}
	grid := chooseGrid(cfg.PEs)
	for d := 0; d < 3; d++ {
		if cfg.N%grid[d] != 0 || cfg.N/grid[d] < 1 {
			return fmt.Errorf("matmul: N=%d not divisible by grid %v", cfg.N, grid)
		}
	}
	if (cfg.N/grid[0])%grid[1] != 0 || (cfg.N/grid[2])%grid[0] != 0 || (cfg.N/grid[0])%grid[2] != 0 {
		return fmt.Errorf("matmul: N=%d incompatible with grid %v shard split", cfg.N, grid)
	}
	return nil
}

// Run executes one matmul configuration.
func Run(cfg Config) Result {
	if cfg.N <= 0 {
		cfg.N = 2048
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 2
	}
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	a := &app{cfg: cfg, grid: chooseGrid(cfg.PEs)}
	o, ok := apps.Run(apps.Spec{
		Name: "matmul", Platform: cfg.Platform, PEs: cfg.PEs,
		Backend: cfg.Backend, Net: cfg.Net, Timeline: cfg.Timeline,
		Chaos: cfg.Chaos, Ckpt: cfg.Ckpt, Kill: cfg.Kill,
		Validate: cfg.Validate, CkDirect: cfg.Mode == Ckd,
		Warmup: cfg.Warmup, Iters: cfg.Iters, Unit: "iterations", Width: 1,
		Build: a.build, Iterate: a.iterateAll, Verify: a.verifyLocal,
	})
	res := Result{Config: cfg, Outcome: o, Grid: a.grid}
	if ok && cfg.Validate {
		if cfg.Backend != charm.NetBackend {
			// Under net no single process holds the whole product;
			// verifyLocal covered the hosted strips.
			res.MaxError = a.verify()
		}
		// A net worker's strips of C, the rest NaN.
		res.C = a.gatherC()
	}
	return res
}
