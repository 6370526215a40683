package apps_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/fem"
	"repro/internal/apps/matmul"
	"repro/internal/apps/openatom"
	"repro/internal/apps/pingpong"
	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
	"repro/internal/trace"
)

// appRun is one rank's view of an app run: its validated output (NaN
// where the rank hosts nothing; nil for pingpong, whose check is the
// payload compare inside the run), counters and errors.
type appRun struct {
	out      []float64
	counters map[string]int64
	errs     []error
}

// exitApps runs each of the paper's apps in a small validated shape.
var exitApps = []struct {
	name string
	run  func(be charm.Backend, n *netrt.Node, ckd bool) appRun
}{
	{"stencil", func(be charm.Backend, n *netrt.Node, ckd bool) appRun {
		mode := apps.Msg
		if ckd {
			mode = apps.Ckd
		}
		r := stencil.Run(stencil.Config{Platform: netmodel.AbeIB, Mode: mode, PEs: 4,
			NX: 16, NY: 16, NZ: 8, Virtualization: 2, Iters: 2, Warmup: 1, Validate: true,
			Backend: be, Net: n})
		return appRun{r.Field, r.Counters, r.Errors}
	}},
	{"matmul", func(be charm.Backend, n *netrt.Node, ckd bool) appRun {
		mode := apps.Msg
		if ckd {
			mode = apps.Ckd
		}
		r := matmul.Run(matmul.Config{Platform: netmodel.AbeIB, Mode: mode, PEs: 4, N: 32,
			Iters: 2, Warmup: 1, Validate: true, Backend: be, Net: n})
		return appRun{r.C, r.Counters, r.Errors}
	}},
	{"fem", func(be charm.Backend, n *netrt.Node, ckd bool) appRun {
		mode := apps.Msg
		if ckd {
			mode = apps.Ckd
		}
		r := fem.Run(fem.Config{Platform: netmodel.AbeIB, Mode: mode, PEs: 4, NX: 16, NY: 16,
			Virtualization: 2, Iters: 2, Warmup: 1, Validate: true, Backend: be, Net: n})
		return appRun{r.Field, r.Counters, r.Errors}
	}},
	{"openatom", func(be charm.Backend, n *netrt.Node, ckd bool) appRun {
		mode := openatom.Msg
		if ckd {
			mode = openatom.Ckd
		}
		r := openatom.Run(openatom.Config{Platform: netmodel.AbeIB, Mode: mode, Scope: openatom.FullStep,
			PEs: 4, NStates: 16, NPlanes: 2, Grain: 4, Points: 32, Steps: 2, Warmup: 1, Validate: true,
			Backend: be, Net: n})
		return appRun{r.Field, r.Counters, r.Errors}
	}},
	{"pingpong", func(be charm.Backend, n *netrt.Node, ckd bool) appRun {
		mode := pingpong.CharmMsg
		if ckd {
			mode = pingpong.CkDirect
		}
		r := pingpong.Run(pingpong.Config{Platform: netmodel.AbeIB, Mode: mode, Size: 1024, Iters: 20,
			Backend: be, Net: n})
		return appRun{nil, r.Counters, r.Errors}
	}},
}

// TestNetRunsEndByExit runs every app of internal/apps on 2- and 3-rank
// in-process net worlds, both transports of each. Every rank's run must
// have ended by the root's Exit (net.exits), with no app frame after the
// halt, and the union of the ranks' validated output must equal the
// simulator's bit for bit. On 3 ranks pingpong's middle rank hosts no
// element, so the root exits a run that rank may not have attached yet.
func TestNetRunsEndByExit(t *testing.T) {
	for _, world := range []int{2, 3} {
		nodes, err := netrt.StartLocal(world)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range exitApps {
			for _, ckd := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/ckd=%v/world=%d", app.name, ckd, world), func(t *testing.T) {
					sim := app.run(charm.SimBackend, nil, ckd)
					runs := make([]appRun, world)
					var wg sync.WaitGroup
					for r, n := range nodes {
						wg.Add(1)
						go func() {
							defer wg.Done()
							runs[r] = app.run(charm.NetBackend, n, ckd)
						}()
					}
					wg.Wait()
					covered := make(map[int]bool)
					for r, run := range runs {
						if len(run.errs) > 0 {
							t.Fatalf("rank %d: %v", r, run.errs)
						}
						if got := run.counters[trace.CntNetExits]; got != 1 {
							t.Errorf("rank %d: %s = %d, want 1 (the run ended by quiescence)", r, trace.CntNetExits, got)
						}
						if got := run.counters[trace.CntNetAfterHalt]; got != 0 {
							t.Errorf("rank %d: %s = %d", r, trace.CntNetAfterHalt, got)
						}
						if len(run.out) != len(sim.out) {
							t.Fatalf("rank %d: output size %d, sim %d", r, len(run.out), len(sim.out))
						}
						for i, v := range run.out {
							if math.IsNaN(v) {
								continue // not hosted by this rank
							}
							covered[i] = true
							if v != sim.out[i] {
								t.Fatalf("rank %d: output differs at %d: net %v sim %v", r, i, v, sim.out[i])
							}
						}
					}
					if len(covered) != len(sim.out) {
						t.Errorf("ranks covered %d of %d outputs", len(covered), len(sim.out))
					}
				})
			}
		}
		nettest.CloseAll(t, nodes)
	}
}
