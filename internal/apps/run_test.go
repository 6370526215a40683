package apps

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/ckpt"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
	"repro/internal/trace"
)

// toy is the smallest barrier app: four elements over two PEs, each
// iteration a broadcast after which every element contributes (1, 0).
type toy struct {
	fail  bool // Iterate reports a runtime error instead of iterating
	stall bool // elements never contribute, so no barrier completes

	d          *Driver
	arr        *charm.Array
	iterEP     charm.EP
	iterations int
	steps      int // step barriers Reduced saw
}

type toyElem struct{ v float64 }

func (e *toyElem) Pup(p charm.Puper) { p.Float64(&e.v) }

// spec runs Warmup 1 + Iters 3: five step barriers.
func (t *toy) spec() Spec {
	return Spec{
		Name: "toy", Platform: netmodel.AbeIB, PEs: 2,
		Warmup: 1, Iters: 3, Unit: "barriers", Width: 2,
		Build:   t.build,
		Iterate: t.iterate,
		Reduced: func(*charm.Ctx, []float64) bool { t.steps++; return true },
	}
}

func (t *toy) build(d *Driver) *charm.Array {
	t.d = d
	t.arr = d.RTS.NewArray("toy", func(ix charm.Index) int { return ix[0] % 2 })
	for i := 0; i < 4; i++ {
		t.arr.Insert(charm.Idx1(i), &toyElem{})
	}
	t.iterEP = t.arr.EntryMethod("iterate", func(ctx *charm.Ctx, msg *charm.Message) {
		if !t.stall {
			t.arr.ContributeFrom(ctx.Index(), 1, 0)
		}
	})
	return t.arr
}

func (t *toy) iterate(ctx *charm.Ctx) {
	t.iterations++
	if t.fail {
		t.d.RTS.ReportError(errors.New("toy: broken"))
		return
	}
	ctx.Broadcast(t.arr, t.iterEP, &charm.Message{Size: 8})
}

// panicOf runs f and returns what it panicked with ("" if nothing).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestRunResultPolicy pins how Run folds a run into a result: a quiet
// sim run panics on a runtime error or a stall, a chaos run returns
// them (a stall as chaos.StallError), and a checkpoint that cannot be
// restored is a returned error, never a panic.
func TestRunResultPolicy(t *testing.T) {
	badCommit := t.TempDir()
	if err := ckpt.WriteCommit(badCommit, 3, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		app          toy
		chaos        bool
		ckpt         string
		panics, errs string // substrings; "" means none
		ok           bool
	}{
		{name: "clean", ok: true},
		{name: "error without chaos", app: toy{fail: true}, panics: "toy: runtime contract violation: toy: broken"},
		{name: "error under chaos", app: toy{fail: true}, chaos: true, errs: "toy: broken"},
		{name: "stall without chaos", app: toy{stall: true}, panics: "toy: only 0/5 barriers completed"},
		{name: "stall under chaos", app: toy{stall: true}, chaos: true, errs: "run stalled at 0/5 barriers"},
		{name: "restore failure", ckpt: badCommit, errs: "toy: restore checkpoint: ckpt: commit record is for a 3-rank world"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.app.spec()
			if tc.chaos {
				s.Chaos = chaos.NoiseOnly(1)
			}
			if tc.ckpt != "" {
				s.Ckpt = &charm.CkptOptions{Dir: tc.ckpt, Every: 2}
			}
			var o Outcome
			var ok bool
			p := panicOf(func() { o, ok = Run(s) })
			if tc.panics != "" || p != "" {
				if tc.panics == "" || !strings.Contains(p, tc.panics) {
					t.Fatalf("panic %q, want one containing %q", p, tc.panics)
				}
				return
			}
			if ok != tc.ok {
				t.Errorf("ok = %v, want %v", ok, tc.ok)
			}
			if tc.errs == "" {
				if len(o.Errors) != 0 || o.IterTime <= 0 || tc.app.steps != 5 {
					t.Fatalf("clean run: errors %v, iteration time %v, %d step barriers", o.Errors, o.IterTime, tc.app.steps)
				}
				return
			}
			if len(o.Errors) != 1 || !strings.Contains(o.Errors[0].Error(), tc.errs) {
				t.Fatalf("errors %v, want one containing %q", o.Errors, tc.errs)
			}
		})
	}
}

// TestRunNetWorkerShortResult runs the toy on an in-process two-rank
// world: rank 0 hosts PE 0 and reports the timing, the worker returns a
// short result — no timing, ok only while its own state checks clean.
func TestRunNetWorkerShortResult(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	for _, workerBad := range []bool{false, true} {
		outs := make([]Outcome, len(nodes))
		oks := make([]bool, len(nodes))
		var wg sync.WaitGroup
		for rank, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				app := &toy{}
				s := app.spec()
				s.Backend, s.Net, s.Validate = charm.NetBackend, n, true
				s.Verify = func() []error {
					if workerBad && rank == 1 {
						return []error{errors.New("toy: hosted state off the oracle")}
					}
					return nil
				}
				outs[rank], oks[rank] = Run(s)
			}()
		}
		wg.Wait()
		if len(outs[0].Errors) != 0 || !oks[0] || outs[0].IterTime <= 0 {
			t.Fatalf("rank 0: errors %v, ok %v, iteration time %v", outs[0].Errors, oks[0], outs[0].IterTime)
		}
		if outs[1].IterTime != 0 || outs[1].Counters == nil {
			t.Fatalf("worker: iteration time %v, counters %v; want the short result", outs[1].IterTime, outs[1].Counters)
		}
		if oks[1] == workerBad || (len(outs[1].Errors) != 0) != workerBad {
			t.Fatalf("worker with failing checks %v: ok %v, errors %v", workerBad, oks[1], outs[1].Errors)
		}
	}
}

// TestSequencerOrdersCheckpointLBAndKill pins the root client's order
// on sim. Checkpoints fall every 2 steps and balancing rounds every
// step, so the checkpoint wins at steps 2 and 4 and the balancer runs
// at 1 and 3; neither kind of round counts as a step, so the kill -9
// tier fires exactly once, after exactly its step's barrier, and a
// rerun in the same directory resumes after the committed step.
func TestSequencerOrdersCheckpointLBAndKill(t *testing.T) {
	spec := func(app *toy, dir string) Spec {
		s := app.spec()
		s.Ckpt = &charm.CkptOptions{Dir: dir, Every: 2}
		s.LBEvery, s.LBStrategy = 1, "greedy"
		return s
	}
	dir := t.TempDir()
	app := &toy{}
	o, ok := Run(spec(app, dir))
	if !ok || len(o.Errors) != 0 || app.iterations != 5 || app.steps != 5 {
		t.Fatalf("ok %v, errors %v, %d iterations, %d step barriers; want 5 and 5", ok, o.Errors, app.iterations, app.steps)
	}
	if n := o.Counters[trace.CntLBRounds]; n != 2 {
		t.Errorf("%d balancing rounds, want 2 (steps 1 and 3; the checkpoint wins at 2 and 4)", n)
	}
	if step, found, err := ckpt.ReadCommit(dir, 1); err != nil || !found || step != 4 {
		t.Errorf("commit record: step %d, found %v, err %v; want step 4", step, found, err)
	}
	resumed := &toy{}
	if _, ok := Run(spec(resumed, dir)); !ok || resumed.iterations != 1 {
		t.Errorf("rerun: ok %v, %d iterations; want 1 after the step-4 commit", ok, resumed.iterations)
	}

	for step := 1; step <= 5; step++ {
		app := &toy{}
		var seen []int
		s := spec(app, t.TempDir())
		s.Kill = &chaos.Kill{Rank: 1, Step: step, Via: chaos.KillerFunc(func(int) error {
			seen = append(seen, app.steps)
			return nil
		})}
		if _, ok := Run(s); !ok {
			t.Fatalf("kill at %d: run incomplete", step)
		}
		if len(seen) != 1 || seen[0] != step {
			t.Errorf("kill at step %d fired after step barriers %v, want [%d]", step, seen, step)
		}
	}
}
