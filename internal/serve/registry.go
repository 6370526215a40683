package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/fem"
	"repro/internal/apps/matmul"
	"repro/internal/apps/pingpong"
	"repro/internal/apps/stencil"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/lb"
	"repro/internal/netmodel"
	"repro/internal/netrt"
)

// Env is the warmed execution environment jobs run against: the backend
// the daemon booted, its netrt node (nil under real), and the modelled
// platform used for CPU-cost charging.
type Env struct {
	Backend  charm.Backend
	Net      *netrt.Node
	Platform *netmodel.Platform
	// KillVia overrides how a chaos-kill victim dies; nil uses the
	// node itself (SIGKILL of the self-spawned child process).
	// In-process recovery tests substitute a closure that hard-kills
	// the victim's Node.
	KillVia chaos.Killer
}

// world returns the rank count (1 under the real backend).
func (e Env) world() int {
	if e.Net == nil {
		return 1
	}
	return e.Net.World()
}

// kind is one registered workload: parameter normalization (applied at
// admission on rank 0, so the broadcast spec is canonical and every
// rank receives identical, pre-validated parameters) and the run
// function. run executes one attempt of a normalized spec in mode m
// and returns the app's outcome (pingpong's round trip is its
// IterTime) and its answer, whose digest a validated job reports.
type kind struct {
	normalize func(env Env, s *Spec) error
	run       func(env Env, s Spec, m apps.Mode) (apps.Outcome, []float64)
}

// Parameter ceilings. The daemon is a long-lived service; a single
// oversized request must not be able to wedge or exhaust it.
const (
	maxIters  = 100000
	maxSize   = 16 << 20
	maxCells  = 1 << 22
	maxEdge   = 2048
	maxPEs    = 1024
	maxKillAt = 10000
)

var kinds = map[string]kind{
	"pingpong": {normalize: normalizePingpong, run: runPingpong},
	"stencil":  {normalize: normalizeStencil, run: runStencil},
	"matmul":   {normalize: normalizeMatmul, run: runMatmul},
	"fem":      {normalize: normalizeFem, run: runFem},
}

// Kinds lists the registered job kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Normalize validates a spec against the registry and fills defaults in
// place, producing the canonical form every rank executes. It is the
// admission-control gate: errors here are client errors (HTTP 400),
// never daemon failures.
func Normalize(env Env, s *Spec) error {
	k, ok := kinds[s.Kind]
	if !ok {
		return fmt.Errorf("unknown kind %q (registered: %v)", s.Kind, Kinds())
	}
	m, err := apps.ParseMode(s.Mode)
	if err != nil {
		return err
	}
	s.Mode = m.String()
	if s.Iters < 0 || s.Iters > maxIters || s.Warmup < 0 || s.Warmup > maxIters {
		return fmt.Errorf("iters/warmup out of range [0, %d]", maxIters)
	}
	if s.PEs < 0 || s.PEs > maxPEs {
		return fmt.Errorf("pes out of range [0, %d]", maxPEs)
	}
	if s.Kill != "" {
		if env.Backend != charm.NetBackend {
			return fmt.Errorf("kill needs the net backend (daemon runs %v)", env.Backend)
		}
		k, err := chaos.ParseKill(s.Kill)
		if err != nil {
			return err
		}
		if k.Rank <= 0 || k.Rank >= env.world() {
			return fmt.Errorf("kill rank %d out of worker range [1, %d)", k.Rank, env.world())
		}
		if k.Step > maxKillAt {
			return fmt.Errorf("kill step %d out of range [1, %d]", k.Step, maxKillAt)
		}
	}
	if err := k.normalize(env, s); err != nil {
		return err
	}
	// Every rank hosts at least one PE (pingpong places its own, and
	// keeps pes 0).
	if s.PEs > 0 && s.PEs < env.world() {
		return fmt.Errorf("pes %d is fewer than the world's %d ranks", s.PEs, env.world())
	}
	return nil
}

// Execute runs a normalized spec against the warmed environment. It
// never panics: a job's failure (including a malformed-parameter panic
// deep in an app) lands in the Outcome, not in the daemon. Under net it
// is the single-attempt body; the caller owns the recovery loop and
// uses the raw errors to decide recoverability.
func Execute(env Env, s Spec) (out Outcome, raw []error) {
	start := time.Now()
	rank := 0
	if env.Net != nil {
		rank = env.Net.Rank()
	}
	out = Outcome{Rank: rank}
	if s.chaosKill == nil && s.Kill != "" {
		// One-shot callers skip PrepareKill; parsing here only affects
		// this attempt's value copy.
		s.PrepareKill(env)
	}
	defer func() {
		out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		if r := recover(); r != nil {
			out.OK = false
			err := fmt.Errorf("job panic: %v", r)
			out.Errors = append(out.Errors, err.Error())
			raw = append(raw, err)
		}
	}()
	k, ok := kinds[s.Kind]
	if !ok {
		err := fmt.Errorf("unknown kind %q", s.Kind)
		out.Errors = []string{err.Error()}
		return out, []error{err}
	}
	m, _ := apps.ParseMode(s.Mode) // normalized
	o, answer := k.run(env, s, m)
	out.OK = len(o.Errors) == 0
	out.Errors = errStrings(o.Errors)
	out.Metric = o.IterTime.Micros()
	out.Counters = o.Counters
	if s.Validate && out.OK {
		out.Checksum = checksumF64(answer)
	}
	return out, o.Errors
}

// cellsWithin reports whether every dimension is positive and their
// product is at most limit. It divides instead of multiplying: a product
// of client-chosen edges can wrap past the ceiling to a small number.
func cellsWithin(limit int, dims ...int) bool {
	n := 1
	for _, d := range dims {
		if d <= 0 || d > limit/n {
			return false
		}
		n *= d
	}
	return true
}

func errStrings(errs []error) []string {
	if len(errs) == 0 {
		return nil
	}
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

func parseKill(s string) *chaos.Kill {
	if s == "" {
		return nil
	}
	k, err := chaos.ParseKill(s)
	if err != nil {
		return nil // normalized specs cannot reach here with a bad value
	}
	return k
}

// PrepareKill pins the spec's chaos trigger for the whole job. The
// owner of a recovery loop must call it before its first Execute so
// every attempt shares one Kill object — Fire's one-shot guard is per
// object, and a fresh Kill per attempt would re-kill the respawned
// worker on every retry until the recovery budget ran out.
func (s *Spec) PrepareKill(env Env) {
	s.chaosKill = parseKill(s.Kill)
	if s.chaosKill != nil {
		s.chaosKill.Via = env.KillVia
	}
}

// --- pingpong ---

func normalizePingpong(env Env, s *Spec) error {
	if s.Size == 0 {
		s.Size = 4096
	}
	if s.Size < 0 || s.Size > maxSize {
		return fmt.Errorf("size out of range [1, %d]", maxSize)
	}
	if s.Iters == 0 {
		s.Iters = 100
	}
	if s.Validate {
		return fmt.Errorf("pingpong has no validate oracle (its check is completing the round trips)")
	}
	if s.Warmup != 0 || s.NX != 0 || s.NY != 0 || s.NZ != 0 || s.N != 0 || s.Virtualization != 0 || s.PEs != 0 || s.LBEvery != 0 || s.LBStrategy != "" || s.Skew != 0 {
		return fmt.Errorf("pingpong takes size/iters/mode only")
	}
	return nil
}

func runPingpong(env Env, s Spec, m apps.Mode) (apps.Outcome, []float64) {
	mode := pingpong.CkDirect
	if m == apps.Msg {
		mode = pingpong.CharmMsg
	}
	res := pingpong.Run(pingpong.Config{
		Platform: env.Platform,
		Mode:     mode,
		Size:     s.Size,
		Iters:    s.Iters,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
	})
	return apps.Outcome{IterTime: res.RTT, Errors: res.Errors, Counters: res.Counters}, nil
}

// --- stencil ---

func normalizeStencil(env Env, s *Spec) error {
	if s.PEs == 0 {
		s.PEs = env.world() * 2
	}
	if s.NX == 0 && s.NY == 0 && s.NZ == 0 {
		s.NX, s.NY, s.NZ = 16, 16, 8
	}
	if !cellsWithin(maxCells, s.NX, s.NY, s.NZ) {
		return fmt.Errorf("stencil domain %dx%dx%d out of range (max %d cells)", s.NX, s.NY, s.NZ, maxCells)
	}
	if s.Virtualization == 0 {
		s.Virtualization = 2
	}
	if s.Virtualization < 0 || s.Virtualization > 64 {
		return fmt.Errorf("vr out of range [1, 64]")
	}
	if s.Iters == 0 {
		s.Iters = 3
	}
	if s.Size != 0 || s.N != 0 {
		return fmt.Errorf("stencil takes pes/nx/ny/nz/vr/iters/warmup/validate/mode/lb_*/skew only")
	}
	if s.LBEvery < 0 || s.LBEvery > maxIters {
		return fmt.Errorf("lb_every out of range [0, %d]", maxIters)
	}
	if s.LBEvery > 0 && s.LBStrategy == "" {
		s.LBStrategy = "greedy"
	}
	strat, err := lb.ParseStrategy(s.LBStrategy)
	if err != nil {
		return err
	}
	if s.LBEvery > 0 && strat == nil {
		return fmt.Errorf("lb_every needs a strategy (have: greedy)")
	}
	if s.Skew < 0 || s.Skew > 1e6 {
		return fmt.Errorf("skew out of range [0, 1e6]")
	}
	return stencil.Config{PEs: s.PEs, Virtualization: s.Virtualization, NX: s.NX, NY: s.NY, NZ: s.NZ}.Check()
}

func runStencil(env Env, s Spec, m apps.Mode) (apps.Outcome, []float64) {
	res := stencil.Run(stencil.Config{
		Platform: env.Platform,
		Mode:     m,
		PEs:      s.PEs, Virtualization: s.Virtualization,
		NX: s.NX, NY: s.NY, NZ: s.NZ,
		Iters: s.Iters, Warmup: s.Warmup,
		Validate: s.Validate,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
		LBEvery:  s.LBEvery, LBStrategy: s.LBStrategy,
		Skew: s.Skew,
	})
	return res.Outcome, res.Field
}

// --- matmul ---

func normalizeMatmul(env Env, s *Spec) error {
	if s.PEs == 0 {
		s.PEs = max(4, env.world())
	}
	if s.N == 0 {
		s.N = 32
	}
	if s.N < 0 || s.N > maxEdge {
		return fmt.Errorf("n out of range [1, %d]", maxEdge)
	}
	if s.Iters == 0 {
		s.Iters = 2
	}
	if s.Size != 0 || s.NX != 0 || s.NY != 0 || s.NZ != 0 || s.Virtualization != 0 || s.LBEvery != 0 || s.LBStrategy != "" || s.Skew != 0 {
		return fmt.Errorf("matmul takes pes/n/iters/warmup/validate/mode only")
	}
	return matmul.Config{PEs: s.PEs, N: s.N}.Check()
}

func runMatmul(env Env, s Spec, m apps.Mode) (apps.Outcome, []float64) {
	res := matmul.Run(matmul.Config{
		Platform: env.Platform,
		Mode:     m,
		PEs:      s.PEs,
		N:        s.N,
		Iters:    s.Iters, Warmup: s.Warmup,
		Validate: s.Validate,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
	})
	return res.Outcome, res.C
}

// --- fem ---

func normalizeFem(env Env, s *Spec) error {
	if s.PEs == 0 {
		s.PEs = env.world() * 2
	}
	if s.NX == 0 && s.NY == 0 {
		s.NX, s.NY = 16, 16
	}
	if s.NZ != 0 || !cellsWithin(maxCells, s.NX, s.NY) {
		return fmt.Errorf("fem quad grid %dx%d out of range (2-D; max %d quads)", s.NX, s.NY, maxCells)
	}
	if s.Virtualization == 0 {
		s.Virtualization = 2
	}
	if s.Virtualization < 0 || s.Virtualization > 64 {
		return fmt.Errorf("vr out of range [1, 64]")
	}
	if s.Iters == 0 {
		s.Iters = 3
	}
	if s.Size != 0 || s.N != 0 || s.LBEvery != 0 || s.LBStrategy != "" || s.Skew != 0 {
		return fmt.Errorf("fem takes pes/nx/ny/vr/iters/warmup/validate/mode only")
	}
	return nil
}

func runFem(env Env, s Spec, m apps.Mode) (apps.Outcome, []float64) {
	res := fem.Run(fem.Config{
		Platform: env.Platform,
		Mode:     m,
		PEs:      s.PEs, Virtualization: s.Virtualization,
		NX: s.NX, NY: s.NY,
		Iters: s.Iters, Warmup: s.Warmup,
		Validate: s.Validate,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
	})
	return res.Outcome, res.Field
}
