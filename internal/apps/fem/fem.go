package fem

import (
	"errors"
	"sync"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the shared-vertex exchange transport.
type Mode = apps.Mode

// Transport variants.
const (
	Msg = apps.Msg
	Ckd = apps.Ckd
)

// Config parameterizes a run.
type Config struct {
	Platform *netmodel.Platform
	Mode     Mode
	PEs      int
	// NX, NY is the quad-grid resolution (2*NX*NY triangles).
	NX, NY int
	// Virtualization is the number of mesh partitions per PE.
	Virtualization int
	Iters, Warmup  int
	// DT is the explicit step size (default 0.1).
	DT float64
	// Validate moves real vertex data and checks against the serial
	// reference.
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
	Parts    int
	PartGrid [2]int
	Residual float64
	field    func() []float64
	// SharedConsistent reports whether every part held bit-identical
	// values for shared vertices at the end (validate mode); when it is
	// false, Errors says so too.
	SharedConsistent bool
	Channels         int
}

// Field is the final vertex values (validate mode; nil otherwise), built
// on first read: a run that nobody asks for its answer never assembles
// it. A net rank's copy holds its hosted parts' vertices and NaN
// elsewhere.
func (r Result) Field() []float64 {
	if r.field == nil {
		return nil
	}
	return r.field()
}

// Improvement runs both transports and returns the percentage gain.
func Improvement(cfg Config) (msg, ckd Result, pct float64) {
	return apps.Improvement(func(m Mode) (Result, sim.Time) {
		cfg.Mode = m
		r := Run(cfg)
		return r, r.IterTime
	})
}

// partGrid factors parts into a near-square (gx, gy) that divides the
// quad grid.
func partGrid(want, nx, ny int) [2]int {
	g := [2]int{1, 1}
	for g[0]*g[1] < want {
		if (g[0] >= g[1] || g[0]*2 > nx) && g[1]*2 <= ny {
			g[1] *= 2
		} else if g[0]*2 <= nx {
			g[0] *= 2
		} else {
			break
		}
	}
	return g
}

// Check reports the parameter error Run panics on: a non-positive PE
// count or a negative warmup.
func (cfg Config) Check() error {
	if cfg.PEs <= 0 {
		return errors.New("fem: PEs must be positive")
	}
	if cfg.Warmup < 0 {
		return errors.New("fem: Warmup must not be negative")
	}
	return nil
}

// Run executes one FEM configuration.
func Run(cfg Config) Result {
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	if cfg.NX <= 0 || cfg.NY <= 0 {
		cfg.NX, cfg.NY = 128, 128
	}
	if cfg.Virtualization <= 0 {
		cfg.Virtualization = 4
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.DT == 0 {
		cfg.DT = 0.1
	}
	grid := partGrid(cfg.PEs*cfg.Virtualization, cfg.NX, cfg.NY)
	mesh := NewRectMesh(cfg.NX, cfg.NY)
	part := PartitionRect(mesh, cfg.NX, cfg.NY, grid[0], grid[1])

	a := &app{cfg: cfg, mesh: mesh, part: part, grid: grid}
	o, ok := apps.Run(apps.Spec{
		Name: "fem", Platform: cfg.Platform, PEs: cfg.PEs,
		Backend: cfg.Backend, Net: cfg.Net, Timeline: cfg.Timeline,
		Chaos: cfg.Chaos, Ckpt: cfg.Ckpt, Kill: cfg.Kill,
		Validate: cfg.Validate, CkDirect: cfg.Mode == Ckd,
		Warmup: cfg.Warmup, Iters: cfg.Iters, Unit: "iterations", Width: 2,
		Build: a.build, Iterate: a.iterateAll, Verify: a.validateLocal,
		Reduced: func(_ *charm.Ctx, vals []float64) bool { a.lastResidual = vals[1]; return true },
	})
	res := Result{Config: cfg, Outcome: o, Parts: part.Parts, PartGrid: grid, Channels: a.channels}
	if ok {
		res.Residual = a.lastResidual
		if cfg.Validate {
			// A net worker's own parts' vertices, the rest NaN.
			res.field = sync.OnceValue(a.gather)
			if res.SharedConsistent = a.sharedConsistent(); !res.SharedConsistent {
				res.Errors = append(res.Errors, errors.New("fem: hosted parts disagree on shared vertices"))
			}
		}
	}
	return res
}
