// Package apps owns what the paper's apps share: one run lifecycle and
// one launcher for their command lines.
//
// Every app the paper evaluates iterates the same way: exchange over
// channels, then a reduction barrier that keeps at most one put in
// flight per channel. Run builds the runtime around an app, applies
// chaos, attaches and restores the checkpointer, installs the root
// reduction client that sequences checkpoint, load balancing and the
// kill -9 tier between iterations, ends the run at its last barrier, and
// folds the run into one result policy. The app supplies only its
// build, its iteration, what it reads from a barrier and its checks.
package apps

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/lb"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects an app's communication variant.
type Mode int

// The variants every app compares.
const (
	Msg Mode = iota // Charm++ messages
	Ckd             // CkDirect channels
)

// String names the mode.
func (m Mode) String() string {
	if m == Msg {
		return "msg"
	}
	return "ckd"
}

// Improvement runs an app with messages and then with CkDirect and
// returns the percentage by which CkDirect cuts the time per iteration,
// the gap Figures 2 to 5 plot. run sets the mode, runs, and returns the
// result with its time per iteration.
func Improvement[R any](run func(Mode) (R, sim.Time)) (msg, ckd R, pct float64) {
	msg, tm := run(Msg)
	ckd, tc := run(Ckd)
	return msg, ckd, (1 - float64(tc)/float64(tm)) * 100
}

// Spec is one app run as the lifecycle sees it: the settings every app
// shares, copied from the app's Config, and the hooks only the app can
// supply.
type Spec struct {
	// Name prefixes the lifecycle's panics and errors.
	Name     string
	Platform *netmodel.Platform
	// CoresPerNode overrides the platform's node width (0 keeps it).
	CoresPerNode int
	PEs          int
	Backend      charm.Backend
	Net          *netrt.Node
	Timeline     *trace.Timeline
	Chaos        *chaos.Scenario
	Ckpt         *charm.CkptOptions
	Kill         *chaos.Kill
	Validate     bool
	// CkDirect gives the run a CkDirect manager (Driver.Mgr).
	CkDirect bool
	// A complete run stamps Warmup+Iters+1 barriers and is timed over
	// the last Iters of them. Unit names a barrier in a stalled run's
	// error.
	Warmup, Iters int
	Unit          string
	// Width is the app's barrier contribution width; checkpoint and
	// balancing rounds contribute 1 followed by zeros (0 means 1).
	Width int
	// LBEvery runs a balancing round with strategy LBStrategy every
	// LBEvery barriers; OnMigrate rehomes a moved element's channels.
	LBEvery    int
	LBStrategy string
	OnMigrate  func(array int, idx charm.Index, from, to int, done func())

	// Build creates the app's arrays, entry methods and channels on
	// d.RTS. It returns the array whose reduction is the step barrier,
	// or nil for an app that stamps its own progress with Driver.Mark.
	Build func(d *Driver) *charm.Array
	// Iterate starts one iteration. Run calls it on PE 0 to begin, and
	// the sequencer calls it after every step barrier but the last.
	Iterate func(ctx *charm.Ctx)
	// Reduced, when set, reads each completed reduction of the barrier
	// array that is not a checkpoint or balancing round. It returns
	// false for a reduction that is not a step barrier; the app then
	// continues the step itself.
	Reduced func(ctx *charm.Ctx, vals []float64) bool
	// Verify, when set, checks the hosted state against the app's
	// oracle after a clean validated net run: no process holds the
	// whole answer there, but every process shares the oracle.
	Verify func() []error
}

// Outcome is what the lifecycle reports about a run.
type Outcome struct {
	IterTime    sim.Time // average measured iteration time (PE 0's rank)
	TotalEvents uint64
	// Errors holds runtime contract violations and unrecovered faults
	// (net and chaos runs only; a quiet sim or real run panics instead).
	Errors []error
	// Counters is the final trace-counter snapshot (fault/retry
	// accounting; used by determinism regression tests).
	Counters map[string]int64
}

// Driver is one run in flight: what an app builds on, and the barrier
// stamps the sequencer records.
type Driver struct {
	RTS *charm.RTS
	Mgr *ckdirect.Manager // nil unless Spec.CkDirect
	LB  *lb.Balancer      // nil unless Spec.LBEvery; attached after Build

	s       Spec
	arr     *charm.Array
	ck      *charm.Checkpointer
	ckptEP  charm.EP
	contrib []float64
	stamps  []sim.Time
	killed  bool // this run fired the kill -9 tier
}

// Mark stamps one barrier by hand, for an app without a barrier array;
// the last one ends the run (see barrier).
func (d *Driver) Mark(ctx *charm.Ctx) {
	d.stamps = append(d.stamps, ctx.Now())
	if len(d.stamps) == d.total() {
		d.exit()
	}
}

// Fire fires the kill -9 tier (Spec.Kill) if step is its step, for an
// app that counts its own progress; the barrier sequencer fires it for
// the rest.
func (d *Driver) Fire(step int) {
	if d.s.Kill.Fire(step, d.s.Net) {
		d.killed = true
	}
}

// exit ends a completed run on the root (charm.RTS.Exit), the analogue of
// the CkExit a Charm++ program calls after its last iteration. It is safe
// by the argument the checkpoint and balancing rounds rest on: the last
// step barrier completes only after every element has consumed its last
// exchange, so no app message or put is in flight. A run that killed a
// rank does not exit: a victim's silence must abort it through the
// peer-loss path, never look like a finished run.
func (d *Driver) exit() {
	if !d.killed {
		d.RTS.Exit()
	}
}

func (d *Driver) total() int { return d.s.Warmup + d.s.Iters + 1 }

// Run executes one app run and folds its result. A runtime error panics
// a sim or real run without chaos, where it can only be a bug, and is
// returned under net (the launcher decides) or chaos. A run that
// stamped too few barriers panics without chaos and returns
// chaos.StallError with it. A net worker rank returns early with no
// timing: barriers live on PE 0's rank. ok reports whether the app's
// state is a finished answer: the root's run completed, or a worker's
// ran clean.
func Run(s Spec) (o Outcome, ok bool) {
	if s.Backend != charm.SimBackend {
		if s.Chaos != nil {
			panic(s.Name + ": chaos scenarios are sim-only")
		}
		if s.Timeline != nil {
			panic(s.Name + ": timeline recording is sim-only")
		}
	}
	if s.Backend == charm.NetBackend && s.Net == nil {
		panic(s.Name + ": net backend needs Config.Net (a started netrt node)")
	}
	eng := sim.NewEngine()
	cores := s.CoresPerNode
	if cores <= 0 {
		cores = s.Platform.CoresPerNode
	}
	mach := machine.New(eng, machine.Config{
		PEs:          s.PEs,
		CoresPerNode: cores,
		Topology:     s.Platform.TopologyFor((s.PEs + cores - 1) / cores),
	})
	rts := charm.NewRTS(eng, mach, netmodel.NewNet(eng, mach, s.Platform.PerHopUS, s.Platform.IntraNodeFactor),
		s.Platform, trace.NewRecorder(), charm.Options{
			Checked:         true,
			VirtualPayloads: !s.Validate && s.Backend == charm.SimBackend,
			Backend:         s.Backend,
			Net:             s.Net,
		})
	if s.Timeline != nil {
		rts.SetTimeline(s.Timeline)
	}
	d := &Driver{RTS: rts, s: s}
	if s.CkDirect {
		d.Mgr = ckdirect.NewManager(rts)
	}
	s.Chaos.Apply(rts, d.Mgr)
	if s.Ckpt.Enabled() {
		d.ck = charm.NewCheckpointer(rts, s.Ckpt)
	}
	if d.arr = s.Build(d); d.arr != nil {
		d.sequence()
	}
	if d.ck != nil {
		d.ck.Attach(d.arr)
		if d.Mgr != nil {
			d.ck.SetRegionHooks(d.Mgr)
		}
		// Roll back to the newest committed cut (a fresh run finds none
		// and starts from step zero). Restore follows Build: the SPMD
		// set-up is the checkpointed run's, so element state and
		// registered-buffer bytes overlay in place.
		step, err := d.ck.Restore()
		if err != nil {
			return Outcome{
				Errors:   []error{fmt.Errorf("%s: restore checkpoint: %w", s.Name, err)},
				Counters: rts.Recorder().Counters(),
			}, false
		}
		// The stamp count is the global step cursor: pre-seeding it makes
		// the next barrier step+1. (A resumed run reports no meaningful
		// timing; the pre-seeded stamps are zero.)
		d.stamps = make([]sim.Time, step)
	}
	rts.StartAt(0, s.Iterate)
	rts.Run()
	return d.fold()
}

// sequence installs the barrier array's checkpoint entry, its root
// reduction client and its balancer.
func (d *Driver) sequence() {
	d.contrib = make([]float64, max(d.s.Width, 1))
	d.contrib[0] = 1
	if d.ck != nil {
		d.ckptEP = d.arr.EntryMethod("ckpt", func(ctx *charm.Ctx, msg *charm.Message) {
			// One element reaching the cut; the last local one writes
			// this rank's snapshot. The extra barrier round resumes
			// iteration only after every rank's snapshot is durable.
			d.ck.ElementSave(msg.Tag)
			d.arr.ContributeFrom(ctx.Index(), d.contrib...)
		})
	}
	d.arr.SetReductionClient(charm.Sum, d.barrier)
	if d.s.LBEvery <= 0 {
		return
	}
	strat, err := lb.ParseStrategy(d.s.LBStrategy)
	if err != nil {
		panic(err)
	}
	if strat == nil {
		panic(d.s.Name + ": LBEvery set without an LBStrategy")
	}
	d.LB, err = lb.New(d.RTS, lb.Options{
		Every:     d.s.LBEvery,
		Strategy:  strat,
		Contrib:   d.contrib,
		OnMigrate: d.s.OnMigrate,
	})
	if err != nil {
		panic(err)
	}
	d.LB.Attach(d.arr)
}

// barrier is the root reduction client, the one place with a globally
// ordered step count. A completed checkpoint round commits and a
// completed balancing round finishes; either resumes the interrupted
// step. A step barrier is stamped and fires the kill -9 tier, then
// starts a due checkpoint, else a due balancing round (a checkpoint due
// at the same step wins; the balancer waits for its next period), else
// the next iteration; the last step barrier ends the run instead.
func (d *Driver) barrier(ctx *charm.Ctx, vals []float64) {
	switch {
	case d.ck != nil && d.ck.InCheckpoint():
		// Every rank's snapshot is on disk, so the commit record may
		// name the step.
		if _, err := d.ck.Commit(); err != nil {
			d.RTS.ReportError(fmt.Errorf("%s: checkpoint commit: %w", d.s.Name, err))
			return
		}
	case d.LB != nil && d.LB.InBalance():
		// Every move is applied and every channel rehomed, globally.
		d.LB.Finish()
	default:
		if d.s.Reduced != nil && !d.s.Reduced(ctx, vals) {
			return
		}
		d.stamps = append(d.stamps, ctx.Now())
		step := len(d.stamps)
		d.Fire(step)
		if step < d.total() && d.ck != nil && d.ck.Due(step) {
			d.ck.Begin(step)
			ctx.Broadcast(d.arr, d.ckptEP, &charm.Message{Size: 8, Tag: step})
			return
		}
		if step < d.total() && d.LB != nil && d.LB.Due(step) {
			d.LB.Begin(ctx)
			return
		}
	}
	if len(d.stamps) < d.total() {
		d.s.Iterate(ctx)
	} else {
		d.exit()
	}
}

// fold applies the result policy Run documents.
func (d *Driver) fold() (Outcome, bool) {
	s, rts := d.s, d.RTS
	errs := rts.Errors()
	if len(errs) > 0 && s.Chaos == nil && s.Backend != charm.NetBackend {
		panic(fmt.Sprintf("%s: runtime contract violation: %v", s.Name, errs[0]))
	}
	if s.Backend == charm.NetBackend && s.Validate && s.Verify != nil && len(errs) == 0 {
		errs = s.Verify()
	}
	o := Outcome{TotalEvents: rts.Executed(), Errors: errs, Counters: rts.Recorder().Counters()}
	if s.Backend == charm.NetBackend && !rts.HostsPE(0) {
		return o, len(errs) == 0
	}
	if k := len(d.stamps); k < d.total() {
		if len(errs) == 0 {
			if s.Chaos == nil {
				panic(fmt.Sprintf("%s: only %d/%d %s completed", s.Name, k, d.total(), s.Unit))
			}
			// Transfers were lost and nothing armed recovered or even
			// reported them: hand back what is known instead of tearing
			// the process down.
			o.Errors = []error{chaos.StallError(o.Counters, fmt.Sprintf("%d/%d %s", k, d.total(), s.Unit))}
		}
		return o, false
	}
	o.IterTime = (d.stamps[s.Warmup+s.Iters] - d.stamps[s.Warmup]) / sim.Time(s.Iters)
	return o, true
}
