// Command matmul runs the §4.2 study: 3-D-decomposed parallel matrix
// multiplication with messages or CkDirect.
//
//	matmul -platform bgp -pes 4096 -n 2048 -compare
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/matmul"
)

func main() {
	l := apps.NewLauncher("matmul", apps.Net|apps.Ckpt|apps.Kill|apps.Compare|apps.Modes)
	var (
		pes      = flag.Int("pes", 64, "processing elements")
		n        = flag.Int("n", 2048, "matrix edge")
		iters    = flag.Int("iters", 2, "measured multiplies")
		warmup   = flag.Int("warmup", 1, "warmup multiplies")
		validate = flag.Bool("validate", false, "move real matrices and verify the product (small n)")
	)
	l.Parse()
	l.Start()
	cfg := matmul.Config{
		Platform: l.Platform,
		Mode:     l.Mode,
		PEs:      *pes,
		N:        *n,
		Iters:    *iters, Warmup: *warmup,
		Validate: *validate,
		Backend:  l.Backend,
		Net:      l.Node,
		Chaos:    l.Chaos,
		Ckpt:     l.Ckpt,
		Kill:     l.Kill,
	}
	if l.Compare {
		msg, ckd, pct := matmul.Improvement(cfg)
		if !l.Quiet() {
			fmt.Printf("matmul %dx%d on %d PEs of %s (chare grid %dx%dx%d)\n",
				*n, *n, *pes, l.Platform.Name, msg.Grid[0], msg.Grid[1], msg.Grid[2])
			fmt.Printf("  msg: %v per multiply\n", msg.IterTime)
			fmt.Printf("  ckd: %v per multiply\n", ckd.IterTime)
			fmt.Printf("  improvement: %.2f%%\n", pct)
			if *validate {
				fmt.Printf("  max error: msg %.2e, ckd %.2e\n", msg.MaxError, ckd.MaxError)
			}
		}
		l.Exit(append(msg.Errors, ckd.Errors...))
		return
	}
	var res matmul.Result
	errs := l.Run(func() []error {
		res = matmul.Run(cfg)
		return res.Errors
	})
	if !l.Quiet() {
		fmt.Printf("matmul %dx%d, mode %v, %d PEs: %v per multiply\n", *n, *n, cfg.Mode, *pes, res.IterTime)
		if *validate {
			fmt.Printf("  max error %.2e\n", res.MaxError)
		}
	}
	l.Exit(errs)
}
