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
)

func main() {
	l := apps.NewLauncher("pingpong", apps.Net|apps.Kill)
	var (
		modeName = flag.String("mode", "ckdirect", "charm-msg | ckdirect | mpi | mpi-put | mpi-alt")
		sizesArg = flag.String("sizes", "100,1000,5000,10000,20000,30000,40000,70000,100000,500000", "comma-separated payload sizes in bytes")
		iters    = flag.Int("iters", 1000, "round trips to average over")
	)
	l.Parse()
	mode, err := pingpong.ParseMode(*modeName)
	if err != nil {
		l.Fatal(err)
	}
	var cfgs []pingpong.Config
	for _, field := range strings.Split(*sizesArg, ",") {
		size, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			l.Fatal(fmt.Errorf("bad size %q: %v", field, err))
		}
		cfg := pingpong.Config{
			Platform: l.Platform,
			Mode:     mode,
			Size:     size,
			Iters:    *iters,
			Virtual:  size > 65536,
			Backend:  l.Backend,
			Chaos:    l.Chaos,
			Kill:     l.Kill,
		}
		if err := cfg.Check(); err != nil {
			l.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	if l.Kill != nil && len(cfgs) > 1 {
		l.Fatal(errors.New("-chaos.kill fires once per process; run it with a single -sizes value"))
	}
	l.Start()
	if !l.Quiet() {
		fmt.Printf("pingpong on %s, mode %v, %d iterations\n", l.Platform.Name, mode, *iters)
		fmt.Printf("%12s %14s\n", "size (B)", "RTT (us)")
	}
	var errs []error
	for _, cfg := range cfgs {
		cfg.Net = l.Node
		// Pingpong takes no checkpoints: after a rank death the mesh
		// rebuilds around the respawned rank and the benchmark restarts
		// from iteration zero.
		var res pingpong.Result
		for _, e := range l.Run(func() []error {
			res = pingpong.Run(cfg)
			return res.Errors
		}) {
			errs = append(errs, fmt.Errorf("size %d: %w", cfg.Size, e))
		}
		if !l.Quiet() {
			fmt.Printf("%12d %14.3f\n", cfg.Size, res.RTTMicros())
		}
	}
	l.Exit(errs)
}
