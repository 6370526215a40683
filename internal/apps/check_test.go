package apps_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/fem"
	"repro/internal/apps/matmul"
	"repro/internal/apps/openatom"
	"repro/internal/apps/pingpong"
	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/netmodel"
)

// TestCheckRefusesWhatRunPanicsOn is the shape table every front end
// relies on: for each configuration an app's Run panics on, its Check
// returns an error, and Run's panic is that error, so a main, ckserve's
// admission and Run itself refuse the shape by one rule.
func TestCheckRefusesWhatRunPanicsOn(t *testing.T) {
	abe := netmodel.AbeIB
	type shape struct {
		name  string
		check func() error
		run   func()
	}
	var cases []shape
	add := func(name string, check func() error, run func()) { cases = append(cases, shape{name, check, run}) }
	stencilCase := func(name string, c stencil.Config) {
		c.Platform = abe
		add("stencil/"+name, c.Check, func() { stencil.Run(c) })
	}
	stencilCase("domain too small", stencil.Config{PEs: 64, Virtualization: 1, NX: 2, NY: 2, NZ: 2})
	stencilCase("no PEs", stencil.Config{Virtualization: 1, NX: 8, NY: 8, NZ: 8})
	stencilCase("lb without strategy", stencil.Config{PEs: 2, Virtualization: 2, NX: 8, NY: 8, NZ: 8, LBEvery: 2})
	stencilCase("lb strategy none", stencil.Config{PEs: 2, Virtualization: 2, NX: 8, NY: 8, NZ: 8, LBEvery: 2, LBStrategy: "none"})
	stencilCase("unknown strategy", stencil.Config{PEs: 2, Virtualization: 2, NX: 8, NY: 8, NZ: 8, LBEvery: 2, LBStrategy: "round-robin"})
	stencilCase("ckpt with lb", stencil.Config{PEs: 2, Virtualization: 2, NX: 8, NY: 8, NZ: 8, LBEvery: 2, LBStrategy: "greedy",
		Ckpt: &charm.CkptOptions{Dir: t.TempDir(), Every: 2}})

	matmulCase := func(name string, c matmul.Config) {
		c.Platform = abe
		add("matmul/"+name, c.Check, func() { matmul.Run(c) })
	}
	matmulCase("N not divisible", matmul.Config{PEs: 64, N: 100})
	matmulCase("N below the grid", matmul.Config{PEs: 8, N: 1})
	matmulCase("negative warmup", matmul.Config{PEs: 8, N: 16, Warmup: -1})

	femCase := func(name string, c fem.Config) {
		c.Platform = abe
		add("fem/"+name, c.Check, func() { fem.Run(c) })
	}
	femCase("no PEs", fem.Config{NX: 8, NY: 8})
	femCase("negative PEs", fem.Config{PEs: -1, NX: 8, NY: 8})
	femCase("negative warmup", fem.Config{PEs: 2, NX: 8, NY: 8, Warmup: -1})

	openatomCase := func(name string, c openatom.Config) {
		c.Platform = abe
		add("openatom/"+name, c.Check, func() { openatom.Run(c) })
	}
	openatomCase("states not divisible by grain", openatom.Config{PEs: 4, NStates: 7, Grain: 64})
	openatomCase("default grain of zero", openatom.Config{PEs: 4, NStates: 2})
	openatomCase("no PEs", openatom.Config{NStates: 8, Grain: 4})
	openatomCase("negative points", openatom.Config{PEs: 4, NStates: 8, Grain: 4, Points: -1})
	openatomCase("negative warmup", openatom.Config{PEs: 4, NStates: 8, Grain: 4, Warmup: -1})

	pingpongCase := func(name string, c pingpong.Config) {
		add("pingpong/"+name, c.Check, func() { pingpong.Run(c) })
	}
	pingpongCase("no size", pingpong.Config{Platform: abe, Mode: pingpong.CkDirect})
	pingpongCase("mpi on real", pingpong.Config{Platform: abe, Mode: pingpong.MPI, Size: 8, Backend: charm.RealBackend})
	pingpongCase("mpi-alt on bgp", pingpong.Config{Platform: netmodel.SurveyorBGP, Mode: pingpong.MPIAlt, Size: 8})
	pingpongCase("unknown mode", pingpong.Config{Platform: abe, Mode: pingpong.MPIAlt + 1, Size: 8})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check()
			if err == nil {
				t.Fatal("Check accepted the shape")
			}
			defer func() {
				if got := fmt.Sprint(recover()); got != err.Error() {
					t.Fatalf("Run panicked with %q, want Check's %q", got, err)
				}
			}()
			tc.run()
		})
	}
}
