package apps

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
)

// Feature selects the flags a launcher adds to the common set
// (-platform, -backend, -faults, -fault-seed, -noise, -reliable,
// -watchdog).
type Feature uint

// Launcher features.
const (
	Net     Feature = 1 << iota // -backend=net and the -net.* flags
	Ckpt                        // -ckpt.every and -ckpt.dir
	Kill                        // -chaos.kill
	Compare                     // -compare
	Modes                       // -mode msg | ckd
)

// Launcher is the command line the paper's app binaries share. It
// registers the common flags, refuses combinations that cannot run,
// starts the net backend's node, drives the recovery loop and owns the
// exit codes: 2 for a bad command line, 1 for a failed run.
type Launcher struct {
	Prog     string
	Platform *netmodel.Platform
	Backend  charm.Backend
	Mode     Mode // Ckd unless -mode says otherwise
	Compare  bool
	Chaos    *chaos.Scenario
	Ckpt     *charm.CkptOptions // nil unless -ckpt.every
	Kill     *chaos.Kill
	Node     *netrt.Node // the started node under -backend=net

	fs     *flag.FlagSet
	feat   Feature
	net    *netrt.Config
	exit   func(code int) // os.Exit; tests observe the code instead
	stderr io.Writer

	platform, backend, mode string
	chaos                   chaos.Options
	ckptEvery               int
	ckptDir, kill           string
}

// NewLauncher registers prog's common flags on the process command line.
func NewLauncher(prog string, feat Feature) *Launcher {
	return newLauncher(flag.CommandLine, prog, feat)
}

func newLauncher(fs *flag.FlagSet, prog string, feat Feature) *Launcher {
	l := &Launcher{Prog: prog, fs: fs, feat: feat, exit: os.Exit, stderr: os.Stderr}
	backends := "sim (modelled network) | real (goroutines + shared memory)"
	if feat&Net != 0 {
		backends += " | net (multiple OS processes over TCP)"
		l.net = netrt.RegisterFlags(fs)
	}
	fs.StringVar(&l.platform, "platform", "abe", "abe | bgp")
	fs.StringVar(&l.backend, "backend", "sim", backends)
	fs.StringVar(&l.chaos.Faults, "faults", "", `fault-plan spec, e.g. "drop:rate=0.01" (see internal/faults)`)
	fs.Uint64Var(&l.chaos.Seed, "fault-seed", 1, "seed for noise and fault randomness")
	fs.BoolVar(&l.chaos.Noise, "noise", false, "inject CPU-noise bursts")
	fs.BoolVar(&l.chaos.Reliable, "reliable", false, "enable ack/retransmit message reliability")
	fs.StringVar(&l.chaos.Watchdog, "watchdog", "off", "CkDirect stall watchdog: off | report | recover")
	if feat&Modes != 0 {
		fs.StringVar(&l.mode, "mode", "ckd", "msg | ckd")
	}
	if feat&Compare != 0 {
		fs.BoolVar(&l.Compare, "compare", false, "run both modes and report the improvement")
	}
	if feat&Ckpt != 0 {
		fs.IntVar(&l.ckptEvery, "ckpt.every", 0, "checkpoint every N reduction barriers, 0 disables (net backend only)")
		fs.StringVar(&l.ckptDir, "ckpt.dir", "", "checkpoint directory, shared by every rank (net backend only)")
	}
	if feat&Kill != 0 {
		fs.StringVar(&l.kill, "chaos.kill", "", `kill -9 a worker rank mid-run: "RANK@STEP" (net backend only; the world recovers and reruns)`)
	}
	return l
}

// Parse parses the command line and applies the shared refusals; a bad
// command line exits 2. The app's own checks follow, then Start.
func (l *Launcher) Parse() { l.mustParse(os.Args[1:]) }

func (l *Launcher) mustParse(args []string) {
	if err := l.parse(args); err != nil {
		l.Fatal(err)
	}
}

func (l *Launcher) parse(args []string) error {
	if err := l.fs.Parse(args); err != nil {
		return err
	}
	var err error
	if l.Platform, err = ParsePlatform(l.platform); err != nil {
		return err
	}
	if l.Backend, err = charm.ParseBackend(l.backend); err != nil {
		return err
	}
	if l.Backend == charm.NetBackend && l.feat&Net == 0 {
		return fmt.Errorf("%s runs in one process; run the apps themselves with -backend=net (e.g. stencil -backend=net)", l.Prog)
	}
	if o := l.chaos; l.Backend != charm.SimBackend && (o.Faults != "" || o.Noise || o.Reliable || o.Watchdog != "off") {
		return errors.New("-faults/-noise/-reliable/-watchdog model simulated failures and are sim-only (drop them or use -backend=sim)")
	}
	if l.Chaos, err = l.chaos.Build(); err != nil {
		return err
	}
	if l.Kill, err = chaos.ParseKill(l.kill); err != nil {
		return err
	}
	if l.Mode, err = ParseMode(l.mode); err != nil {
		return err
	}
	if (l.ckptEvery > 0) != (l.ckptDir != "") {
		return fmt.Errorf("-ckpt.every and -ckpt.dir go together (got every=%d, dir=%q)", l.ckptEvery, l.ckptDir)
	}
	if l.ckptEvery > 0 {
		l.Ckpt = &charm.CkptOptions{Dir: l.ckptDir, Every: l.ckptEvery}
	}
	if l.recovery() {
		if l.Backend != charm.NetBackend {
			return errors.New("-ckpt.* and -chaos.kill exercise rank-death recovery and need -backend=net")
		}
		if l.Compare {
			return errors.New("-compare reruns both modes on one mesh and cannot combine with recovery flags (pick one -mode)")
		}
		// Keep every rank's listener open past bootstrap so Rejoin can
		// rebuild the mesh around a respawned rank.
		l.net.Recover = true
	}
	return l.checkWorld()
}

// checkWorld refuses a net world with more ranks than the app's -pes:
// every rank hosts at least one PE, and a rank with none would panic
// in the runtime after every rank was spawned.
func (l *Launcher) checkWorld() error {
	f := l.fs.Lookup("pes")
	if l.Backend != charm.NetBackend || f == nil {
		return nil
	}
	world := l.net.World
	if len(l.net.Peers) > 0 {
		world = len(l.net.Peers)
	}
	if pes := f.Value.(flag.Getter).Get().(int); pes < world {
		return fmt.Errorf("-pes %d is fewer than the %d ranks of the net world; every rank hosts at least one PE", pes, world)
	}
	return nil
}

func (l *Launcher) recovery() bool { return l.Ckpt != nil || l.Kill != nil }

// Start boots the net backend's node (nothing to do on sim and real).
func (l *Launcher) Start() {
	if l.Backend != charm.NetBackend {
		return
	}
	var err error
	if l.Node, err = netrt.Start(*l.net); err != nil {
		l.Fatal(err)
	}
}

// Quiet reports whether this process is a net worker rank: it computes
// and validates its share, and the report and the world's exit status
// belong to rank 0.
func (l *Launcher) Quiet() bool { return l.Node != nil && l.Node.IsWorker() }

// Run executes run once, or, under recovery flags, through the recovery
// loop: on a recoverable rank death every rank rebuilds the mesh
// (respawning the victim) and reruns, resuming from the newest
// committed checkpoint or from scratch when none was taken.
func (l *Launcher) Run(run func() []error) []error {
	if !l.recovery() {
		return run()
	}
	return charm.RunWithRecovery(l.Node, charm.DefaultRecoveryAttempts, run)
}

// Exit tears the net mesh down, reaping self-spawned workers, and folds
// a teardown failure (a worker whose local validation exited non-zero)
// into errs. It prints every error and exits 1 if there is any, so a
// script cannot mistake a broken run for a result; otherwise it returns.
func (l *Launcher) Exit(errs []error) {
	if l.Node != nil {
		if err := l.Node.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, e := range errs {
		fmt.Fprintf(l.stderr, "%s: runtime violation: %v\n", l.Prog, e)
	}
	if len(errs) > 0 {
		l.exit(1)
	}
}

// Fatal reports a bad command line and exits 2.
func (l *Launcher) Fatal(err error) {
	fmt.Fprintf(l.stderr, "%s: %v\n", l.Prog, err)
	l.exit(2)
}

// ParseMode names a communication variant: msg, or ckd (the default
// when name is empty).
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "ckd":
		return Ckd, nil
	case "msg":
		return Msg, nil
	}
	return Ckd, fmt.Errorf("unknown mode %q (msg | ckd)", name)
}

// ParsePlatform names a modelled platform: abe (or ib, infiniband) or
// bgp (or bluegene, surveyor).
func ParsePlatform(name string) (*netmodel.Platform, error) {
	switch name {
	case "abe", "ib", "infiniband":
		return netmodel.AbeIB, nil
	case "bgp", "bluegene", "surveyor":
		return netmodel.SurveyorBGP, nil
	}
	return nil, fmt.Errorf("unknown platform %q (want abe|bgp)", name)
}
