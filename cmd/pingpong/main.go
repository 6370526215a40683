// Command pingpong runs the §3 microbenchmark for one stack at one or
// more message sizes.
//
//	pingpong -platform abe -mode ckdirect -sizes 100,1000,100000 -iters 1000
package main

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/pingpong"
	"repro/internal/charm"
)

func main() {
	l := apps.NewLauncher("pingpong", apps.Net|apps.Kill)
	var (
		modeName = flag.String("mode", "ckdirect", "charm-msg | ckdirect | mpi | mpi-put | mpi-alt")
		sizesArg = flag.String("sizes", "100,1000,5000,10000,20000,30000,40000,70000,100000,500000", "comma-separated payload sizes in bytes")
		iters    = flag.Int("iters", 1000, "round trips to average over")
	)
	l.Parse()
	mode, err := parseMode(*modeName)
	if err != nil {
		l.Fatal(err)
	}
	if l.Backend != charm.SimBackend && mode != pingpong.CharmMsg && mode != pingpong.CkDirect {
		l.Fatal(fmt.Errorf("mode %v models a foreign MPI stack and is sim-only (use charm-msg or ckdirect with -backend=%v)", mode, l.Backend))
	}
	var sizes []int
	for _, field := range strings.Split(*sizesArg, ",") {
		size, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			l.Fatal(fmt.Errorf("bad size %q: %v", field, err))
		}
		sizes = append(sizes, size)
	}
	if l.Kill != nil && len(sizes) > 1 {
		l.Fatal(errors.New("-chaos.kill fires once per process; run it with a single -sizes value"))
	}
	l.Start()
	if !l.Quiet() {
		fmt.Printf("pingpong on %s, mode %v, %d iterations\n", l.Platform.Name, mode, *iters)
		fmt.Printf("%12s %14s\n", "size (B)", "RTT (us)")
	}
	var errs []error
	for _, size := range sizes {
		cfg := pingpong.Config{
			Platform: l.Platform,
			Mode:     mode,
			Size:     size,
			Iters:    *iters,
			Virtual:  size > 65536,
			Backend:  l.Backend,
			Net:      l.Node,
			Chaos:    l.Chaos,
			Kill:     l.Kill,
		}
		// Pingpong takes no checkpoints: after a rank death the mesh
		// rebuilds around the respawned rank and the benchmark restarts
		// from iteration zero.
		var res pingpong.Result
		for _, e := range l.Run(func() []error {
			res = pingpong.Run(cfg)
			return res.Errors
		}) {
			errs = append(errs, fmt.Errorf("size %d: %w", size, e))
		}
		if !l.Quiet() {
			fmt.Printf("%12d %14.3f\n", size, res.RTTMicros())
		}
	}
	l.Exit(errs)
}

func parseMode(name string) (pingpong.Mode, error) {
	switch name {
	case "charm-msg", "msg":
		return pingpong.CharmMsg, nil
	case "ckdirect", "ckd":
		return pingpong.CkDirect, nil
	case "mpi":
		return pingpong.MPI, nil
	case "mpi-put":
		return pingpong.MPIPut, nil
	case "mpi-alt", "mpich-vmi":
		return pingpong.MPIAlt, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}
