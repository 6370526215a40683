package apps_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/fem"
	"repro/internal/apps/matmul"
	"repro/internal/apps/openatom"
	"repro/internal/apps/stencil"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// view is what the conformance checks read from one app run.
type view struct {
	apps.Outcome
	// answer is the validated payload (field, product, coefficient
	// sums), NaN where a net rank hosts nothing.
	answer []float64
	// root holds reduction results that PE 0's rank keeps: equal on
	// every backend.
	root []float64
	// local holds sums over what this process hosts: equal wherever one
	// process hosts everything.
	local []float64
}

// app is one row of the conformance table: the configurations its
// checks run (each an app's Config, taken from the per-app tests the
// table replaces) and how to run one. A column sets Mode, Backend, Net,
// Chaos and Validate on a configuration; the rest stays as written.
type app struct {
	name string
	run  func(cfg any) view
	// real and net are validated configurations; chaos is a validated
	// configuration the faults and noise columns perturb; det and timing
	// are modelled ones.
	real, net, chaos, det, timing any
	// naive is a mode only the real column adds (openatom's naive
	// polling), or nil.
	naive any
	// faultSeeds and noiseSeeds count the chaos scenarios per mode.
	faultSeeds, noiseSeeds uint64
	// shared: a net rank hosts a value another rank hosts too (fem's
	// partition-boundary vertices); otherwise the ranks tile the answer.
	shared bool
}

var conformance = []app{
	{
		name: "stencil",
		run: func(cfg any) view {
			r := stencil.Run(cfg.(stencil.Config))
			return view{r.Outcome, r.Field(), []float64{r.Residual}, []float64{r.FieldSum}}
		},
		real: stencil.Config{
			Platform: netmodel.AbeIB, PEs: 4, Virtualization: 2,
			NX: 16, NY: 16, NZ: 8, Iters: 3, Warmup: 1, Validate: true,
		},
		chaos: stencil.Config{
			Platform: netmodel.AbeIB, PEs: 4, Virtualization: 2,
			NX: 10, NY: 8, NZ: 6, Iters: 3, Warmup: 0, Validate: true,
		},
		det: stencil.Config{
			Platform: netmodel.AbeIB, Mode: stencil.Ckd, PEs: 8, Virtualization: 8,
			NX: 128, NY: 128, NZ: 64, Iters: 2, Warmup: 1,
		},
		timing: stencil.Config{
			Platform: netmodel.SurveyorBGP, PEs: 4, Virtualization: 4,
			NX: 16, NY: 16, NZ: 16, Iters: 2, Warmup: 1,
		},
		faultSeeds: 4, noiseSeeds: 8,
	},
	{
		name: "matmul",
		run: func(cfg any) view {
			r := matmul.Run(cfg.(matmul.Config))
			return view{r.Outcome, r.C(), nil, []float64{r.MaxError}}
		},
		real:       matmul.Config{Platform: netmodel.AbeIB, PEs: 4, N: 32, Iters: 2, Warmup: 1, Validate: true},
		chaos:      matmul.Config{Platform: netmodel.AbeIB, PEs: 8, N: 32, Iters: 2, Warmup: 0, Validate: true},
		det:        matmul.Config{Platform: netmodel.AbeIB, Mode: matmul.Ckd, PEs: 32, N: 1024, Iters: 2, Warmup: 1},
		timing:     matmul.Config{Platform: netmodel.SurveyorBGP, PEs: 8, N: 64, Iters: 2, Warmup: 1},
		faultSeeds: 3, noiseSeeds: 3,
	},
	{
		name: "fem",
		run: func(cfg any) view {
			r := fem.Run(cfg.(fem.Config))
			return view{r.Outcome, r.Field(), []float64{r.Residual}, nil}
		},
		real: fem.Config{
			Platform: netmodel.AbeIB, PEs: 4, Virtualization: 2,
			NX: 24, NY: 24, Iters: 3, Warmup: 1, Validate: true,
		},
		net: fem.Config{
			Platform: netmodel.AbeIB, PEs: 4, Virtualization: 2,
			NX: 16, NY: 16, Iters: 3, Warmup: 1, Validate: true,
		},
		chaos: fem.Config{
			Platform: netmodel.AbeIB, PEs: 4, Virtualization: 2,
			NX: 9, NY: 7, Iters: 3, Warmup: 0, Validate: true,
		},
		det: fem.Config{
			Platform: netmodel.SurveyorBGP, Mode: fem.Ckd, PEs: 8, Virtualization: 2,
			NX: 64, NY: 64, Iters: 2, Warmup: 1,
		},
		timing: fem.Config{
			Platform: netmodel.SurveyorBGP, PEs: 4, Virtualization: 2,
			NX: 16, NY: 16, Iters: 2, Warmup: 1,
		},
		faultSeeds: 4, noiseSeeds: 4,
		shared: true,
	},
	{
		name: "openatom",
		run: func(cfg any) view {
			r := openatom.Run(cfg.(openatom.Config))
			o := apps.Outcome{IterTime: r.StepTime, TotalEvents: r.TotalEvents, Errors: r.Errors, Counters: r.Counters}
			return view{o, r.Field(), []float64{r.Overlap}, []float64{r.Checksum}}
		},
		real: openatom.Config{
			Platform: netmodel.AbeIB, Scope: openatom.FullStep, PEs: 4,
			NStates: 16, NPlanes: 2, Grain: 4, Points: 32, Steps: 2, Warmup: 1, Validate: true,
		},
		chaos: openatom.Config{
			Platform: netmodel.AbeIB, Scope: openatom.PCOnly, PEs: 8,
			NStates: 16, NPlanes: 2, Grain: 4, Points: 32, Steps: 2, Warmup: 1, Validate: true,
		},
		det: openatom.Config{
			Platform: netmodel.AbeIB, Mode: openatom.Ckd, Scope: openatom.FullStep, PEs: 16,
			NStates: 32, NPlanes: 4, Grain: 8, Points: 128, Steps: 2, Warmup: 1,
		},
		timing: openatom.Config{
			Platform: netmodel.AbeIB, Scope: openatom.FullStep, PEs: 8,
			NStates: 16, NPlanes: 2, Grain: 4, Points: 32, Steps: 2, Warmup: 1,
		},
		naive:      openatom.CkdNaive,
		faultSeeds: 3, noiseSeeds: 3,
	},
}

// TestConformance is the paper's central claim checked once for every
// app: a validated run computes bit-identical answers with messages or
// CkDirect on the simulator, on the real backend and on a two-rank net
// world, under dropped transfers and CPU noise, and the model's virtual
// time neither wanders between runs nor depends on whether payloads are
// real.
func TestConformance(t *testing.T) {
	for _, a := range conformance {
		t.Run(a.name+"/real", a.checkReal)
		t.Run(a.name+"/net", a.checkNet)
		t.Run(a.name+"/faults", func(t *testing.T) { a.checkChaos(t, a.faultSeeds, hostile) })
		t.Run(a.name+"/noise", func(t *testing.T) { a.checkChaos(t, a.noiseSeeds, chaos.NoiseOnly) })
		t.Run(a.name+"/deterministic", a.checkDeterministic)
		t.Run(a.name+"/timing", a.checkTiming)
	}
}

// hostile drops 1 % of all transfers under CPU noise, with the
// reliability protocol and the recovering watchdog on.
func hostile(seed uint64) *chaos.Scenario { return chaos.Hostile(seed, 0.01) }

var modes = []any{apps.Msg, apps.Ckd}

// checkReal: the real backend's answer, root reductions and local sums
// are the simulator's bit for bit, and its iteration time is a positive
// wall-clock time.
func (a app) checkReal(t *testing.T) {
	ms := modes
	if a.naive != nil {
		ms = []any{apps.Msg, apps.Ckd, a.naive}
	}
	for _, m := range ms {
		cfg := with(a.real, "Mode", m)
		sim := clean(t, a.run(cfg), "%v sim", mode(cfg))
		real := clean(t, a.run(with(cfg, "Backend", charm.RealBackend)), "%v real", mode(cfg))
		same(t, mode(cfg), "real", sim, real)
		if real.IterTime <= 0 {
			t.Errorf("%v: real iteration time %v, want positive wall-clock", mode(cfg), real.IterTime)
		}
	}
}

// checkNet: on a two-rank world every value a rank hosts is the
// simulator's, the ranks' hosted values cover the answer (tile it,
// unless values are shared), rank 0 holds the simulator's root
// reductions and alone reports timing, and an unvalidated ckd run,
// which still moves real bytes, finishes clean.
func (a app) checkNet(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	netCfg := a.net
	if netCfg == nil {
		netCfg = a.real
	}
	for _, m := range modes {
		cfg := with(netCfg, "Mode", m)
		sim := clean(t, a.run(cfg), "%v sim", mode(cfg))
		ranks := runWorld(nodes, a.run, with(cfg, "Backend", charm.NetBackend))
		hosts := make([]int, len(sim.answer))
		for rank, got := range ranks {
			clean(t, got, "%v net rank %d", mode(cfg), rank)
			if len(got.answer) != len(sim.answer) {
				t.Fatalf("%v rank %d: answer has %d values, sim %d", mode(cfg), rank, len(got.answer), len(sim.answer))
			}
			for i, v := range got.answer {
				if math.IsNaN(v) {
					continue // not hosted by this rank
				}
				hosts[i]++
				if v != sim.answer[i] {
					t.Fatalf("%v rank %d: value %d differs: net %v sim %v", mode(cfg), rank, i, v, sim.answer[i])
				}
			}
			if want := rank == 0; (got.IterTime > 0) != want {
				t.Errorf("%v rank %d: iteration time %v (only rank 0 times a run, positively)", mode(cfg), rank, got.IterTime)
			}
		}
		for i, n := range hosts {
			if n == 0 || n > 1 && !a.shared {
				t.Fatalf("%v: value %d hosted by %d ranks", mode(cfg), i, n)
			}
		}
		if i := differ(sim.root, ranks[0].root); i >= 0 {
			t.Errorf("%v: root reduction %d differs: net %v sim %v", mode(cfg), i, ranks[0].root[i], sim.root[i])
		}
	}
	cfg := with(netCfg, "Mode", apps.Ckd, "Validate", false, "Backend", charm.NetBackend)
	for rank, got := range runWorld(nodes, a.run, cfg) {
		clean(t, got, "unvalidated ckd net rank %d", rank)
	}
}

// checkChaos: every seed's scenario, in both modes, recovers and leaves
// the quiet message-mode run's answer, root reductions and local sums
// bit for bit; so does the quiet ckd run.
func (a app) checkChaos(t *testing.T, seeds uint64, scenario func(seed uint64) *chaos.Scenario) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	base := clean(t, a.run(with(a.chaos, "Mode", apps.Msg)), "quiet msg")
	same(t, apps.Ckd, "quiet", base, clean(t, a.run(with(a.chaos, "Mode", apps.Ckd)), "quiet ckd"))
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, m := range modes {
			cfg := with(a.chaos, "Mode", m, "Chaos", scenario(seed))
			got := clean(t, a.run(cfg), "seed %d %v", seed, mode(cfg))
			same(t, mode(cfg), "chaos", base, got)
		}
	}
}

// checkDeterministic: the same modelled run twice takes the same virtual
// time and executes the same events.
func (a app) checkDeterministic(t *testing.T) {
	x, y := a.run(a.det), a.run(a.det)
	if x.IterTime != y.IterTime || x.TotalEvents != y.TotalEvents {
		t.Fatalf("nondeterministic: %v/%d events vs %v/%d", x.IterTime, x.TotalEvents, y.IterTime, y.TotalEvents)
	}
}

// checkTiming: moving real payloads (validate mode) leaves the modelled
// iteration time exactly where virtual payloads put it.
func (a app) checkTiming(t *testing.T) {
	for _, m := range modes {
		cfg := with(a.timing, "Mode", m)
		virtual, validated := a.run(with(cfg, "Validate", false)), a.run(with(cfg, "Validate", true))
		if virtual.IterTime != validated.IterTime {
			t.Errorf("%v: validate %v != model %v", mode(cfg), validated.IterTime, virtual.IterTime)
		}
	}
}

// clean fails t if v, the run the format names, reported errors, and
// returns it.
func clean(t *testing.T, v view, format string, args ...any) view {
	t.Helper()
	if len(v.Errors) > 0 {
		t.Fatalf(format+": %v", append(args, v.Errors)...)
	}
	return v
}

// same fails t unless got's answer, root reductions and local sums are
// want's bit for bit.
func same(t *testing.T, m any, label string, want, got view) {
	t.Helper()
	for _, part := range []struct {
		name      string
		want, got []float64
	}{{"answer", want.answer, got.answer}, {"root reduction", want.root, got.root}, {"local sum", want.local, got.local}} {
		if len(part.got) != len(part.want) {
			t.Fatalf("%v %s: %s has %d values, want %d", m, label, part.name, len(part.got), len(part.want))
		}
		if i := differ(part.want, part.got); i >= 0 {
			t.Fatalf("%v %s: %s differs at %d: %v, want %v", m, label, part.name, i, part.got[i], part.want[i])
		}
	}
}

// differ returns the first index where a and b differ bit for bit, or
// -1; b may be shorter.
func differ(a, b []float64) int {
	for i := range b {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// with returns a copy of cfg, an app's Config, with the named fields
// set; a value converts to the field's type (apps.Mode to an app's
// Mode).
func with(cfg any, fields ...any) any {
	v := reflect.New(reflect.TypeOf(cfg)).Elem()
	v.Set(reflect.ValueOf(cfg))
	for i := 0; i < len(fields); i += 2 {
		f := v.FieldByName(fields[i].(string))
		f.Set(reflect.ValueOf(fields[i+1]).Convert(f.Type()))
	}
	return v.Interface()
}

// mode reads cfg's Mode, which names itself.
func mode(cfg any) any { return reflect.ValueOf(cfg).FieldByName("Mode").Interface() }

// runWorld runs cfg on every rank of an in-process world at once and
// returns the per-rank views.
func runWorld(nodes []*netrt.Node, run func(any) view, cfg any) []view {
	out := make([]view, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = run(with(cfg, "Net", n))
		}()
	}
	wg.Wait()
	return out
}
