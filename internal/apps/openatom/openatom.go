// Package openatom implements a proxy for the paper's production study
// (§5): the OpenAtom Car-Parrinello code's PairCalculator phase, which is
// the part the authors accelerated with CkDirect.
//
// The proxy reproduces the structure that makes the study interesting:
//
//   - GS(s, p): a 2-D chare array of electronic states decomposed into
//     planes; each element owns a vector of complex plane-wave
//     coefficients.
//   - PC(b1, b2, p): PairCalculator chares, one per ordered pair of state
//     blocks per plane. Each PC assembles the coefficient vectors of the
//     states in its two blocks, multiplies them into an overlap block
//     (DGEMM), and contributes to the orthonormalization reduction.
//   - The GS→PC point transfer — repeated every step, fixed size, fixed
//     partners, sender and receiver always on the same iteration — is the
//     communication that CkDirect replaces (§5.1). A CkDirect callback
//     counts arrived states and enqueues the multiply as a Charm++ entry
//     method once all have landed, exactly as described in the paper.
//   - The backward path (corrected data PC→GS) and all other phases stay
//     on regular messages in every variant, as in the paper.
//
// Variants: Msg (baseline), Ckd (ReadyMark after the multiply +
// ReadyPollQ at the end of the phase before the PairCalculator — the
// §5.2 fix), and CkdNaive (plain Ready right after the multiply, which
// leaves thousands of handles in the polling queues across unrelated
// phases — the pathology that initially made CkDirect *slower* than
// messaging).
//
// Scope: FullStep simulates a whole time step including a non-PC phase
// (an FFT/transpose proxy); PCOnly disables everything except the
// PairCalculator phases while retaining all PC-related communication,
// matching the paper's "PC" curves in Figures 4 and 5.
package openatom

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the GS→PC transport.
type Mode int

// Transport variants: the two every app compares, plus the naive
// polling variant.
const (
	Msg      = Mode(apps.Msg)
	Ckd      = Mode(apps.Ckd)
	CkdNaive = Ckd + 1
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Msg:
		return "msg"
	case Ckd:
		return "ckd"
	case CkdNaive:
		return "ckd-naive"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode names a transport variant: msg, ckd or ckd-naive.
func ParseMode(name string) (Mode, error) {
	for _, m := range []Mode{Msg, Ckd, CkdNaive} {
		if name == m.String() {
			return m, nil
		}
	}
	return Ckd, fmt.Errorf("unknown mode %q (msg | ckd | ckd-naive)", name)
}

// Scope selects full-step or PairCalculator-only simulation.
type Scope int

// Scopes.
const (
	FullStep Scope = iota
	PCOnly
)

// String names the scope.
func (s Scope) String() string {
	if s == FullStep {
		return "full"
	}
	return "pc-only"
}

// ParseScope names a scope: full, or pc-only (or pc).
func ParseScope(name string) (Scope, error) {
	switch name {
	case "full":
		return FullStep, nil
	case "pc-only", "pc":
		return PCOnly, nil
	}
	return FullStep, fmt.Errorf("unknown scope %q (full | pc-only)", name)
}

// Config parameterizes an OpenAtom proxy run.
type Config struct {
	Platform *netmodel.Platform
	Mode     Mode
	Scope    Scope
	PEs      int
	// CoresPerNode overrides the platform node width (the paper's Abe
	// runs used 2 cores per node to isolate network effects). 0 keeps
	// the platform default.
	CoresPerNode int

	// NStates is the number of electronic states (paper benchmark: 1024;
	// proxy default 128). NPlanes decomposes each state. Grain is the
	// state-block edge of the PairCalculator decomposition. Points is
	// the number of complex coefficients per (state, plane).
	NStates, NPlanes, Grain, Points int

	// FFTWeight scales the non-PairCalculator phase's compute so the
	// full-step/PC-only balance matches the production code's profile
	// (the paper: the PC phases dominate, yet full-step gains are ~3x
	// smaller than PC-only gains because the rest of the step dilutes
	// them). Default 12.
	FFTWeight float64

	Steps, Warmup int
	Validate      bool
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
}

func (c *Config) fillDefaults() {
	if c.NStates == 0 {
		c.NStates = 128
	}
	if c.NPlanes == 0 {
		c.NPlanes = 8
	}
	if c.Grain == 0 {
		c.Grain = c.NStates / 4
	}
	if c.Points == 0 {
		c.Points = 512
	}
	if c.Steps == 0 {
		c.Steps = 2
	}
	if c.FFTWeight == 0 {
		c.FFTWeight = 12
	}
}

// Check reports the parameter error Run panics on, once the defaults
// are filled in: a non-positive PE count, state count, plane count,
// grain or point count, a negative warmup, step count or FFT weight, or
// an NStates that Grain does not divide.
func (cfg Config) Check() error {
	cfg.fillDefaults()
	switch {
	case cfg.PEs <= 0:
		return errors.New("openatom: PEs must be positive")
	case cfg.NStates <= 0 || cfg.NPlanes <= 0 || cfg.Grain <= 0 || cfg.Points <= 0:
		return fmt.Errorf("openatom: NStates %d, NPlanes %d, Grain %d and Points %d must be positive",
			cfg.NStates, cfg.NPlanes, cfg.Grain, cfg.Points)
	case cfg.Warmup < 0 || cfg.Steps < 0 || cfg.FFTWeight < 0:
		return errors.New("openatom: Warmup, Steps and FFTWeight must not be negative")
	case cfg.NStates%cfg.Grain != 0:
		return fmt.Errorf("openatom: NStates %d not divisible by Grain %d", cfg.NStates, cfg.Grain)
	}
	return nil
}

// Result reports the measured step time and validation data.
type Result struct {
	Config
	StepTime sim.Time
	Overlap  float64 // last step's global overlap reduction value
	// Checksum sums the final GS coefficients this process hosts
	// (validate mode); under sim and real that is every element.
	Checksum    float64
	field       func() []float64
	Channels    int // CkDirect channels created (0 for Msg)
	TotalEvents uint64
	// Errors holds runtime contract violations and unrecovered faults
	// (net and chaos runs only; fault-free runs panic instead).
	Errors []error
	// Counters is the final trace-counter snapshot.
	Counters map[string]int64
}

// Field holds one coefficient sum per (state, plane) element in
// linearized order, NaN for elements this process does not host
// (validate mode; nil otherwise) — the cross-rank comparison vector. It
// is built on first read: a run that nobody asks for its answer never
// assembles it.
func (r Result) Field() []float64 {
	if r.field == nil {
		return nil
	}
	return r.field()
}

// Improvement runs baseline and CkDirect variants and returns the
// percentage step-time improvement (Figures 4 and 5).
func Improvement(cfg Config) (msg, ckd Result, pct float64) {
	return apps.Improvement(func(m apps.Mode) (Result, sim.Time) {
		cfg.Mode = Mode(m)
		r := Run(cfg)
		return r, r.StepTime
	})
}

// Run executes one configuration.
func Run(cfg Config) Result {
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	cfg.fillDefaults()
	a := &app{cfg: cfg}
	o, ok := apps.Run(apps.Spec{
		Name: "openatom", Platform: cfg.Platform, CoresPerNode: cfg.CoresPerNode, PEs: cfg.PEs,
		Backend: cfg.Backend, Net: cfg.Net, Timeline: cfg.Timeline, Chaos: cfg.Chaos,
		Validate: cfg.Validate, CkDirect: cfg.Mode != Msg,
		Warmup: cfg.Warmup, Iters: cfg.Steps, Unit: "steps",
		Build: a.build, Iterate: a.beginStep, Reduced: a.onGSBarrier,
	})
	res := Result{Config: cfg, StepTime: o.IterTime, Channels: a.channels,
		TotalEvents: o.TotalEvents, Errors: o.Errors, Counters: o.Counters}
	if ok {
		// A net worker's hosted elements' coefficient sums, the rest NaN.
		res.Overlap, res.Checksum = a.lastOverlap, a.checksum()
		if cfg.Validate {
			res.field = sync.OnceValue(a.gather)
		}
	}
	return res
}
