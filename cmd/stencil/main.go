// Command stencil runs the §4.1 halo-exchange study: 3-D Jacobi with
// message-based or CkDirect halo exchange, or both side by side.
//
//	stencil -platform bgp -pes 256 -domain 1024x1024x512 -compare
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/lb"
	"repro/internal/netrt"
	"repro/internal/trace"
)

func main() {
	l := apps.NewLauncher("stencil", apps.Net|apps.Ckpt|apps.Kill|apps.Compare|apps.Modes)
	var (
		pes        = flag.Int("pes", 64, "processing elements")
		domain     = flag.String("domain", "1024x1024x512", "global domain NXxNYxNZ")
		vr         = flag.Int("vr", 8, "virtualization ratio (chares per PE)")
		iters      = flag.Int("iters", 3, "measured iterations")
		warmup     = flag.Int("warmup", 1, "warmup iterations")
		validate   = flag.Bool("validate", false, "move real data and check against the serial reference (small domains)")
		traceFile  = flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
		lbEvery    = flag.Int("lb.every", 0, "run a load-balancing round every N reduction barriers, 0 disables")
		lbStrategy = flag.String("lb.strategy", "greedy", "rebalancing strategy: greedy | none")
		skew       = flag.Float64("skew", 0, "artificial imbalance: the first half of the chare array wastes this many times extra compute")
	)
	l.Parse()
	nx, ny, nz, err := parseDomain(*domain)
	if err != nil {
		l.Fatal(err)
	}
	if *traceFile != "" && l.Backend != charm.SimBackend {
		l.Fatal(errors.New("-trace records the virtual timeline and is sim-only (drop it or use -backend=sim)"))
	}
	if *lbEvery > 0 {
		if s, err := lb.ParseStrategy(*lbStrategy); err != nil {
			l.Fatal(err)
		} else if s == nil {
			l.Fatal(fmt.Errorf("-lb.every needs a real -lb.strategy (got %q)", *lbStrategy))
		}
	}
	cfg := stencil.Config{
		Platform: l.Platform,
		Mode:     l.Mode,
		PEs:      *pes, Virtualization: *vr,
		NX: nx, NY: ny, NZ: nz,
		Iters: *iters, Warmup: *warmup,
		Validate: *validate,
		Backend:  l.Backend,
		Chaos:    l.Chaos,
		Ckpt:     l.Ckpt,
		Kill:     l.Kill,
		LBEvery:  *lbEvery, LBStrategy: *lbStrategy,
		Skew: *skew,
	}
	if err := cfg.Check(); err != nil {
		l.Fatal(err)
	}
	l.Start()
	cfg.Net = l.Node
	if *traceFile != "" {
		cfg.Timeline = trace.NewTimeline(0)
	}
	if l.Compare {
		msg, ckd, pct := stencil.Improvement(cfg)
		if !l.Quiet() {
			fmt.Printf("stencil %s on %d PEs of %s, chare grid %v (%d chares)\n",
				*domain, *pes, l.Platform.Name, msg.ChareGrid, msg.Chares)
			fmt.Printf("  msg: %v per iteration\n", msg.IterTime)
			fmt.Printf("  ckd: %v per iteration\n", ckd.IterTime)
			fmt.Printf("  improvement: %.2f%%\n", pct)
		}
		finish(l, cfg.Timeline, *traceFile, append(msg.Errors, ckd.Errors...))
		return
	}
	var res stencil.Result
	errs := l.Run(func() []error {
		res = stencil.Run(cfg)
		return res.Errors
	})
	if !l.Quiet() {
		fmt.Printf("stencil %s, mode %v, %d PEs: %v per iteration (%d chares, grid %v)\n",
			*domain, cfg.Mode, *pes, res.IterTime, res.Chares, res.ChareGrid)
		if *validate {
			// Under net each rank validates and checksums only the block it
			// hosts, so rank 0's sum is a share of the global checksum, not
			// the whole of it; the residual crosses ranks via reductions and
			// matches the sim run exactly.
			label := "field checksum"
			if l.Node != nil {
				label = fmt.Sprintf("rank %d field checksum share", l.Node.Rank())
			}
			fmt.Printf("  residual %.6g, %s %.6f\n", res.Residual, label, res.FieldSum)
		}
		if *lbEvery > 0 {
			// The planner runs on PE 0, so these counters live on rank 0's
			// recorder; scripted runs (CI's lb-smoke job) grep this line to
			// prove the balancer actually moved something.
			fmt.Printf("  lb: %d rounds, %d migrations, %d straggler forwards\n",
				res.Counters[trace.CntLBRounds],
				res.Counters[trace.CntLBMigrations],
				res.Counters[trace.CntLBForwards])
		}
	}
	finish(l, cfg.Timeline, *traceFile, errs)
}

// finish writes the -trace timeline, prints the net-stats line and
// exits through the launcher.
func finish(l *apps.Launcher, tl *trace.Timeline, traceFile string, errs []error) {
	if tl != nil {
		f, err := os.Create(traceFile)
		if err != nil {
			l.Fatal(err)
		}
		defer f.Close()
		if err := tl.WriteChromeTrace(f); err != nil {
			l.Fatal(err)
		}
		fmt.Printf("wrote %d spans to %s (open in chrome://tracing or Perfetto)\n",
			len(tl.Spans()), traceFile)
	}
	printNetStats(l.Node)
	l.Exit(errs)
}

// printNetStats emits one machine-readable mesh-counter line per rank
// on stderr before teardown. Every rank prints (stderr is shared by
// self-spawned workers), so a script can sum conns_opened across the
// world — CI's scale-smoke job greps these lines to assert that a
// 16-rank stencil halo opens far fewer sockets than the N·(N−1) full
// mesh, that rank 0's termination probe and nudge fan-in respect the
// tree, and that no rank saw an app frame after the halt; shm-smoke,
// that a co-located world's puts went direct.
func printNetStats(node *netrt.Node) {
	if node == nil {
		return
	}
	s := node.Stats()
	fmt.Fprintf(os.Stderr,
		"stencil: net-stats rank=%d world=%d conns_opened=%d dialed=%d accepted=%d term_fanout=%d probe_rounds=%d probe_reports=%d event_rounds=%d tick_rounds=%d nudges=%d frames_after_halt=%d dialreqs=%d shm_declined=%d puts_direct=%d puts_framed=%d\n",
		node.Rank(), node.World(), s.ConnsDialed+s.ConnsAccepted,
		s.ConnsDialed, s.ConnsAccepted, s.TermFanout,
		s.TermProbeRounds, s.TermProbeReports, s.TermEventRounds, s.TermTickRounds,
		s.TermNudges, s.FramesAfterHalt, s.DialReqs, s.ShmDeclined, s.PutsDirect, s.PutsFramed)
}

func parseDomain(s string) (nx, ny, nz int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("domain %q not NXxNYxNZ", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		dims[i], err = strconv.Atoi(p)
		if err != nil || dims[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("bad dimension %q", p)
		}
	}
	return dims[0], dims[1], dims[2], nil
}
