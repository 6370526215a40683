// Command openatom runs the §5 production-code proxy: the OpenAtom
// PairCalculator phase with message or CkDirect point transfers.
//
//	openatom -platform abe -pes 256 -cores-per-node 2 -scope pc-only -compare
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/openatom"
)

func main() {
	l := apps.NewLauncher("openatom", apps.Net|apps.Compare|apps.Trace)
	var (
		pes       = flag.Int("pes", 64, "processing elements")
		cores     = flag.Int("cores-per-node", 0, "override cores per node (paper's Abe study: 2)")
		nstates   = flag.Int("states", 256, "electronic states")
		nplanes   = flag.Int("planes", 16, "planes per state")
		grain     = flag.Int("grain", 64, "PairCalculator state-block size")
		points    = flag.Int("points", 4096, "complex coefficients per (state, plane)")
		fftWeight = flag.Float64("fft-weight", 24, "relative weight of the non-PC phase")
		steps     = flag.Int("steps", 2, "measured time steps")
		warmup    = flag.Int("warmup", 1, "warmup steps")
		scopeName = flag.String("scope", "full", "full | pc-only")
		modeName  = flag.String("mode", "ckd", "msg | ckd | ckd-naive")
	)
	l.Parse()
	scope, err := openatom.ParseScope(*scopeName)
	if err != nil {
		l.Fatal(err)
	}
	mode, err := openatom.ParseMode(*modeName)
	if err != nil {
		l.Fatal(err)
	}
	cfg := openatom.Config{
		Platform: l.Platform,
		Mode:     mode,
		Scope:    scope,
		PEs:      *pes, CoresPerNode: *cores,
		NStates: *nstates, NPlanes: *nplanes, Grain: *grain, Points: *points,
		FFTWeight: *fftWeight,
		Steps:     *steps, Warmup: *warmup,
		Backend:  l.Backend,
		Timeline: l.Timeline,
		Chaos:    l.Chaos,
	}
	if err := cfg.Check(); err != nil {
		l.Fatal(err)
	}
	l.Start()
	cfg.Net = l.Node
	if l.Compare {
		msg, ckd, pct := openatom.Improvement(cfg)
		if !l.Quiet() {
			fmt.Printf("openatom proxy on %d PEs of %s, scope %v (%d CkDirect channels)\n",
				*pes, l.Platform.Name, scope, ckd.Channels)
			fmt.Printf("  msg: %v per step\n", msg.StepTime)
			fmt.Printf("  ckd: %v per step\n", ckd.StepTime)
			fmt.Printf("  improvement: %.2f%%\n", pct)
		}
		l.Exit(append(msg.Errors, ckd.Errors...))
		return
	}
	res := openatom.Run(cfg)
	if !l.Quiet() {
		fmt.Printf("openatom proxy, mode %v, scope %v, %d PEs: %v per step (%d channels)\n",
			cfg.Mode, scope, *pes, res.StepTime, res.Channels)
	}
	l.WriteTrace(res.Counters)
	l.Exit(res.Errors)
}
