// Command fem runs the supplementary unstructured-mesh FEM study (the
// paper's §1 application class): an explicit solver whose partition
// boundaries produce an irregular, static communication graph.
//
//	fem -platform abe -pes 32 -mesh 2048x2048 -compare
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/fem"
)

func main() {
	l := apps.NewLauncher("fem", apps.Net|apps.Ckpt|apps.Kill|apps.Compare|apps.Modes|apps.Trace)
	var (
		pes      = flag.Int("pes", 16, "processing elements")
		mesh     = flag.String("mesh", "512x512", "quad grid NXxNY (2*NX*NY triangles)")
		vr       = flag.Int("vr", 2, "mesh partitions per PE")
		iters    = flag.Int("iters", 3, "measured iterations")
		warmup   = flag.Int("warmup", 1, "warmup iterations")
		validate = flag.Bool("validate", false, "move real vertex data and verify against the serial reference (small meshes)")
	)
	l.Parse()
	xs, ys, ok := strings.Cut(*mesh, "x")
	nx, err1 := strconv.Atoi(xs)
	ny, err2 := strconv.Atoi(ys)
	if !ok || err1 != nil || err2 != nil || nx <= 0 || ny <= 0 {
		l.Fatal(fmt.Errorf("bad mesh %q (want NXxNY)", *mesh))
	}
	cfg := fem.Config{
		Platform: l.Platform,
		Mode:     l.Mode,
		PEs:      *pes, Virtualization: *vr,
		NX: nx, NY: ny,
		Iters: *iters, Warmup: *warmup,
		Validate: *validate,
		Backend:  l.Backend,
		Timeline: l.Timeline,
		Chaos:    l.Chaos,
		Ckpt:     l.Ckpt,
		Kill:     l.Kill,
	}
	if err := cfg.Check(); err != nil {
		l.Fatal(err)
	}
	l.Start()
	cfg.Net = l.Node
	if l.Compare {
		msg, ckd, pct := fem.Improvement(cfg)
		if !l.Quiet() {
			fmt.Printf("fem %s (%d triangles) on %d PEs of %s, %d partitions (%dx%d)\n",
				*mesh, 2*nx*ny, *pes, l.Platform.Name, msg.Parts, msg.PartGrid[0], msg.PartGrid[1])
			fmt.Printf("  msg: %v per iteration\n", msg.IterTime)
			fmt.Printf("  ckd: %v per iteration (%d channels)\n", ckd.IterTime, ckd.Channels)
			fmt.Printf("  improvement: %.2f%%\n", pct)
		}
		l.Exit(append(msg.Errors, ckd.Errors...))
		return
	}
	var res fem.Result
	errs := l.Run(func() []error {
		res = fem.Run(cfg)
		return res.Errors
	})
	if !l.Quiet() {
		fmt.Printf("fem %s, mode %v, %d PEs: %v per iteration (%d partitions, %d channels)\n",
			*mesh, cfg.Mode, *pes, res.IterTime, res.Parts, res.Channels)
		if *validate {
			// Under net each rank validates only the parts it hosts
			// against the shared serial reference.
			fmt.Printf("  residual %.6g, shared-vertex consistency: %v\n", res.Residual, res.SharedConsistent)
		}
	}
	l.WriteTrace(res.Counters)
	l.Exit(errs)
}
