// Command stencil runs the §4.1 halo-exchange study: 3-D Jacobi with
// message-based or CkDirect halo exchange, or both side by side.
//
//	stencil -platform bgp -pes 256 -domain 1024x1024x512 -compare
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps/stencil"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/lb"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/trace"
)

func main() {
	var (
		platName    = flag.String("platform", "abe", "abe | bgp")
		pes         = flag.Int("pes", 64, "processing elements")
		domain      = flag.String("domain", "1024x1024x512", "global domain NXxNYxNZ")
		vr          = flag.Int("vr", 8, "virtualization ratio (chares per PE)")
		iters       = flag.Int("iters", 3, "measured iterations")
		warmup      = flag.Int("warmup", 1, "warmup iterations")
		modeName    = flag.String("mode", "ckd", "msg | ckd")
		compare     = flag.Bool("compare", false, "run both modes and report the improvement")
		validate    = flag.Bool("validate", false, "move real data and check against the serial reference (small domains)")
		backendName = flag.String("backend", "sim", "sim (modelled network) | real (goroutines + shared memory) | net (multiple OS processes over TCP)")
		traceFile   = flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
		faultSpec   = flag.String("faults", "", `fault-plan spec, e.g. "drop:rate=0.01" (see internal/faults)`)
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for noise and fault randomness")
		noise       = flag.Bool("noise", false, "inject CPU-noise bursts")
		reliable    = flag.Bool("reliable", false, "enable ack/retransmit message reliability")
		watchdog    = flag.String("watchdog", "off", "CkDirect stall watchdog: off | report | recover")
		lbEvery     = flag.Int("lb.every", 0, "run a load-balancing round every N reduction barriers, 0 disables")
		lbStrategy  = flag.String("lb.strategy", "greedy", "rebalancing strategy: greedy | none")
		skew        = flag.Float64("skew", 0, "artificial imbalance: the first half of the chare array wastes this many times extra compute")
		ckptEvery   = flag.Int("ckpt.every", 0, "checkpoint every N reduction barriers, 0 disables (net backend only)")
		ckptDir     = flag.String("ckpt.dir", "", "checkpoint directory, shared by every rank (net backend only)")
		killSpec    = flag.String("chaos.kill", "", `kill -9 a worker rank mid-run: "RANK@STEP" (net backend only; the world recovers and reruns)`)
	)
	netCfg := netrt.RegisterFlags()
	flag.Parse()

	plat, err := platform(*platName)
	if err != nil {
		fatal(err)
	}
	nx, ny, nz, err := parseDomain(*domain)
	if err != nil {
		fatal(err)
	}
	be, err := charm.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}
	if be != charm.SimBackend {
		if *faultSpec != "" || *noise || *reliable || *watchdog != "off" {
			fatal(fmt.Errorf("-faults/-noise/-reliable/-watchdog model simulated failures and are sim-only (drop them or use -backend=sim)"))
		}
		if *traceFile != "" {
			fatal(fmt.Errorf("-trace records the virtual timeline and is sim-only (drop it or use -backend=sim)"))
		}
	}
	sc, err := chaos.Options{
		Seed: *faultSeed, Noise: *noise, Faults: *faultSpec,
		Reliable: *reliable, Watchdog: *watchdog,
	}.Build()
	if err != nil {
		fatal(err)
	}
	kill, err := chaos.ParseKill(*killSpec)
	if err != nil {
		fatal(err)
	}
	if *lbEvery > 0 {
		s, err := lb.ParseStrategy(*lbStrategy)
		if err != nil {
			fatal(err)
		}
		if s == nil {
			fatal(fmt.Errorf("-lb.every needs a real -lb.strategy (got %q)", *lbStrategy))
		}
	}
	if (*ckptEvery > 0) != (*ckptDir != "") {
		fatal(fmt.Errorf("-ckpt.every and -ckpt.dir go together (got every=%d, dir=%q)", *ckptEvery, *ckptDir))
	}
	recovery := *ckptEvery > 0 || kill != nil
	if recovery {
		if be != charm.NetBackend {
			fatal(fmt.Errorf("-ckpt.* and -chaos.kill exercise rank-death recovery and need -backend=net"))
		}
		if *compare {
			fatal(fmt.Errorf("-compare reruns both modes on one mesh and cannot combine with recovery flags (pick one -mode)"))
		}
		// Keep every rank's listener open past bootstrap so Rejoin can
		// rebuild the mesh around a respawned rank.
		netCfg.Recover = true
	}
	var node *netrt.Node
	if be == charm.NetBackend {
		if node, err = netrt.Start(*netCfg); err != nil {
			fatal(err)
		}
	}
	// Worker ranks compute and validate their PE block; the report (and
	// the exit status of the whole world) belongs to rank 0.
	quiet := node != nil && node.IsWorker()
	cfg := stencil.Config{
		Platform: plat,
		PEs:      *pes, Virtualization: *vr,
		NX: nx, NY: ny, NZ: nz,
		Iters: *iters, Warmup: *warmup,
		Validate: *validate,
		Backend:  be,
		Net:      node,
		Chaos:    sc,
		Kill:     kill,
		LBEvery:  *lbEvery, LBStrategy: *lbStrategy,
		Skew: *skew,
	}
	if *ckptEvery > 0 {
		cfg.Ckpt = &charm.CkptOptions{Dir: *ckptDir, Every: *ckptEvery}
	}
	var tl *trace.Timeline
	if *traceFile != "" {
		tl = trace.NewTimeline(0)
		cfg.Timeline = tl
	}
	defer func() {
		if tl == nil {
			return
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tl.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d spans to %s (open in chrome://tracing or Perfetto)\n",
			len(tl.Spans()), *traceFile)
	}()
	if *compare {
		msg, ckd, pct := stencil.Improvement(cfg)
		if !quiet {
			fmt.Printf("stencil %s on %d PEs of %s, chare grid %v (%d chares)\n",
				*domain, *pes, plat.Name, msg.ChareGrid, msg.Chares)
			fmt.Printf("  msg: %v per iteration\n", msg.IterTime)
			fmt.Printf("  ckd: %v per iteration\n", ckd.IterTime)
			fmt.Printf("  improvement: %.2f%%\n", pct)
		}
		printNetStats(node)
		reportErrors("stencil", closeNode(node, append(msg.Errors, ckd.Errors...)))
		return
	}
	switch *modeName {
	case "msg":
		cfg.Mode = stencil.Msg
	case "ckd":
		cfg.Mode = stencil.Ckd
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeName))
	}
	var res stencil.Result
	if recovery {
		// Every rank's driver retries through the same recovery loop:
		// on a recoverable rank death the mesh rebuilds (respawning the
		// victim), and the re-run resumes from the newest committed
		// checkpoint — or from scratch when none was taken.
		res.Errors = charm.RunWithRecovery(node, charm.DefaultRecoveryAttempts, func() []error {
			res = stencil.Run(cfg)
			return res.Errors
		})
	} else {
		res = stencil.Run(cfg)
	}
	if !quiet {
		fmt.Printf("stencil %s, mode %v, %d PEs: %v per iteration (%d chares, grid %v)\n",
			*domain, cfg.Mode, *pes, res.IterTime, res.Chares, res.ChareGrid)
		if *validate {
			// Under net each rank validates and checksums only the block it
			// hosts, so rank 0's sum is a share of the global checksum, not
			// the whole of it; the residual crosses ranks via reductions and
			// matches the sim run exactly.
			label := "field checksum"
			if node != nil {
				label = fmt.Sprintf("rank %d field checksum share", node.Rank())
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
	printNetStats(node)
	reportErrors("stencil", closeNode(node, res.Errors))
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

// closeNode tears the net-backend mesh down (reaping self-spawned
// workers) and folds any teardown failure — e.g. a worker whose local
// validation exited non-zero — into the run's error list.
func closeNode(node *netrt.Node, errs []error) []error {
	if node == nil {
		return errs
	}
	if err := node.Close(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// reportErrors surfaces runtime contract violations and unrecovered
// faults on stderr and exits non-zero, so scripted runs cannot mistake a
// broken simulation for a result.
func reportErrors(prog string, errs []error) {
	if len(errs) == 0 {
		return
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "%s: runtime violation: %v\n", prog, e)
	}
	os.Exit(1)
}

func platform(name string) (*netmodel.Platform, error) {
	switch name {
	case "abe", "ib":
		return netmodel.AbeIB, nil
	case "bgp":
		return netmodel.SurveyorBGP, nil
	}
	return nil, fmt.Errorf("unknown platform %q", name)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stencil:", err)
	os.Exit(2)
}
