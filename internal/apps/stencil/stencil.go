// Package stencil implements the paper's halo-exchange study (§4.1): a
// 3-D Jacobi solver over a cuboid-decomposed domain, with one chare per
// cuboid, comparing Charm++ messages (MSG) against CkDirect channels
// (CKD). Both versions avoid receive-side copies — the kernel reads ghost
// values straight out of the arrived face buffers — so, as in the paper,
// the CKD gains come solely from bypassing message creation and scheduling.
//
// A global barrier (contribute/broadcast) separates iterations in both
// versions; the paper uses it to guarantee at most one CkDirect
// transaction in flight per channel.
package stencil

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/lb"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the communication variant.
type Mode = apps.Mode

// Stencil variants.
const (
	Msg = apps.Msg // Charm++ messages
	Ckd = apps.Ckd // CkDirect channels
)

// Config parameterizes a stencil run.
type Config struct {
	Platform *netmodel.Platform
	Mode     Mode
	PEs      int
	// NX, NY, NZ is the global domain (paper: 1024 x 1024 x 512).
	NX, NY, NZ int
	// Virtualization is the target number of chares per PE (paper: 8).
	Virtualization int
	// Iters are measured iterations; Warmup iterations run first.
	Iters, Warmup int
	// Validate runs real data through the kernel (small domains only) so
	// the final field can be checked against a serial reference.
	Validate bool
	// Backend selects simulated virtual time (default), real
	// goroutine-per-PE execution, or distributed multi-process execution,
	// both with wall-clock timing. The real and net backends allocate real
	// payload buffers for the elements the process runs.
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
	// the newest committed one (the recovery driver re-runs after a rank
	// death, rolling everyone back together).
	Ckpt *charm.CkptOptions
	// Kill, when set, fires the kill -9 chaos tier from the root
	// reduction client: the victim rank dies after Kill.Step barriers.
	Kill *chaos.Kill
	// LBEvery runs a measurement-based load-balancing round every
	// LBEvery reduction barriers (0 disables). Chares migrate between
	// PEs — and between ranks under net — with their CkDirect channels
	// rehomed in place. Check refuses it together with Ckpt.
	LBEvery int
	// LBStrategy names the rebalancing strategy ("greedy"; "none" or ""
	// disables). Check requires one when LBEvery is set.
	LBStrategy string
	// Skew, when positive, makes every chare in the first half of the
	// linearized chare order perform Skew times extra (wasted) compute
	// per iteration — a deterministic artificial imbalance for
	// load-balancing studies, concentrated on the low PEs (and, under
	// net, on the low ranks) by the block placement map. Field values
	// are never touched, so skewed runs stay bit-identical with or
	// without balancing.
	Skew float64
}

// Result reports timing and, in validate mode, the solution.
type Result struct {
	Config
	apps.Outcome
	ChareGrid [3]int
	Chares    int
	Residual  float64 // last iteration's global residual (validate mode)
	FieldSum  float64 // checksum of the final field (validate mode)
	field     func() []float64
}

// Field is the final field (validate mode; nil otherwise), built on
// first read: a run that nobody asks for its answer never assembles it.
// A net rank's copy holds its hosted chares' cells and NaN elsewhere.
func (r Result) Field() []float64 {
	if r.field == nil {
		return nil
	}
	return r.field()
}

// Improvement runs both variants of a configuration and returns the
// percentage improvement of CKD over MSG in average iteration time — the
// quantity plotted in Figure 2.
func Improvement(cfg Config) (msg, ckd Result, pct float64) {
	return apps.Improvement(func(m Mode) (Result, sim.Time) {
		cfg.Mode = m
		r := Run(cfg)
		return r, r.IterTime
	})
}

// chooseGrid picks a chare grid (cx, cy, cz) with cx*cy*cz >= want,
// keeping chare blocks as close to cubic as possible by always splitting
// the dimension with the largest block extent.
func chooseGrid(want, nx, ny, nz int) [3]int {
	c := [3]int{1, 1, 1}
	n := [3]int{nx, ny, nz}
	for c[0]*c[1]*c[2] < want {
		best, bestExtent := 0, -1
		for d := 0; d < 3; d++ {
			extent := n[d] / c[d]
			if extent > bestExtent && c[d]*2 <= n[d] {
				best, bestExtent = d, extent
			}
		}
		if bestExtent <= 0 {
			break // cannot split further
		}
		c[best] *= 2
	}
	return c
}

// ErrCkptWithLB refuses checkpointing together with load balancing. A
// checkpoint taken after a migration records the migrated placement,
// but a restore rebuilds birth placement, so the restore of such a run
// would fail on every rank.
var ErrCkptWithLB = errors.New("stencil: checkpointing cannot be combined with load balancing: a restore rebuilds birth placement, not the migrated one")

// Check reports the parameter error Run panics on: a non-positive PE
// count or virtualization, a domain too small to give every PE a chare,
// an unknown LBStrategy, LBEvery without a strategy, or checkpointing
// together with load balancing (ErrCkptWithLB).
func (cfg Config) Check() error {
	if cfg.PEs <= 0 || cfg.Virtualization <= 0 {
		return errors.New("stencil: PEs and Virtualization must be positive")
	}
	strat, err := lb.ParseStrategy(cfg.LBStrategy)
	if err != nil {
		return err
	}
	if cfg.LBEvery > 0 && strat == nil {
		return fmt.Errorf("stencil: LBEvery needs a strategy (got %q; have: greedy)", cfg.LBStrategy)
	}
	if cfg.Ckpt != nil && cfg.LBEvery > 0 {
		return ErrCkptWithLB
	}
	if grid := chooseGrid(cfg.PEs*cfg.Virtualization, cfg.NX, cfg.NY, cfg.NZ); grid[0]*grid[1]*grid[2] < cfg.PEs {
		return fmt.Errorf("stencil: domain %dx%dx%d too small for %d PEs", cfg.NX, cfg.NY, cfg.NZ, cfg.PEs)
	}
	return nil
}

// Run executes one stencil configuration.
func Run(cfg Config) Result {
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.Warmup < 0 {
		cfg.Warmup = 0
	}
	a := &app{cfg: cfg, grid: chooseGrid(cfg.PEs*cfg.Virtualization, cfg.NX, cfg.NY, cfg.NZ)}
	o, ok := apps.Run(apps.Spec{
		Name: "stencil", Platform: cfg.Platform, PEs: cfg.PEs,
		Backend: cfg.Backend, Net: cfg.Net, Timeline: cfg.Timeline,
		Chaos: cfg.Chaos, Ckpt: cfg.Ckpt, Kill: cfg.Kill,
		Validate: cfg.Validate, CkDirect: cfg.Mode == Ckd,
		Warmup: cfg.Warmup, Iters: cfg.Iters, Unit: "barriers", Width: 2,
		LBEvery: cfg.LBEvery, LBStrategy: cfg.LBStrategy, OnMigrate: a.onMigrate,
		Build: a.build, Iterate: a.iterateAll, Verify: a.validateLocal,
		Reduced: func(_ *charm.Ctx, vals []float64) bool { a.lastResidual = vals[1]; return true },
	})
	res := Result{Config: cfg, Outcome: o, ChareGrid: a.grid, Chares: a.grid[0] * a.grid[1] * a.grid[2]}
	if ok {
		// A net worker knows only its own block of the field (the rest
		// NaN) and its share of the checksum.
		res.Residual, res.FieldSum = a.lastResidual, a.fieldSum()
		if cfg.Validate {
			res.field = sync.OnceValue(func() []float64 { return gatherField(a) })
		}
	}
	return res
}
