package charm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestExitOffRootIsContractViolation: under Checked, Exit on a net rank
// that does not host PE 0 reports netrt.ErrExitOffRoot and ends nothing — the
// run still finishes by quiescence — while Exit on the root ends the run
// on every rank (net.exits).
func TestExitOffRootIsContractViolation(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	for _, pe := range []int{1, 0} {
		rtss := make([]*RTS, len(nodes))
		recs := make([]*trace.Recorder, len(nodes))
		var wg sync.WaitGroup
		for r, n := range nodes {
			eng := sim.NewEngine()
			mach, net := netmodel.AbeIB.BuildMachine(eng, 2)
			recs[r] = trace.NewRecorder()
			rtss[r] = NewRTS(eng, mach, net, netmodel.AbeIB, recs[r], Options{Backend: NetBackend, Net: n, Checked: true})
			rts := rtss[r]
			rts.StartAt(pe, func(*Ctx) { rts.Exit() })
			wg.Add(1)
			go func() { defer wg.Done(); rts.Run() }()
		}
		wg.Wait()
		for r, rts := range rtss {
			errs := rts.Errors()
			offRoot := pe == 1 && r == 1
			switch {
			case offRoot && (len(errs) != 1 || !errors.Is(errs[0], netrt.ErrExitOffRoot)):
				t.Errorf("Exit on rank 1: errors %v, want one wrapping netrt.ErrExitOffRoot", errs)
			case !offRoot && len(errs) > 0:
				t.Errorf("Exit on PE %d, rank %d: %v", pe, r, errs)
			}
			want := int64(0)
			if pe == 0 {
				want = 1
			}
			if got := recs[r].Counters()[trace.CntNetExits]; got != want {
				t.Errorf("Exit on PE %d, rank %d: %s = %d, want %d", pe, r, trace.CntNetExits, got, want)
			}
		}
	}
}

// TestExitIsANoOpOffNet: sim and real quiescence is exact, so Exit there
// changes nothing — from any PE, Checked or not.
func TestExitIsANoOpOffNet(t *testing.T) {
	for _, be := range []Backend{SimBackend, RealBackend} {
		eng := sim.NewEngine()
		mach, net := netmodel.AbeIB.BuildMachine(eng, 2)
		rts := NewRTS(eng, mach, net, netmodel.AbeIB, trace.NewRecorder(), Options{Backend: be})
		ran := false
		rts.StartAt(1, func(ctx *Ctx) {
			rts.Exit()
			ctx.EnqueueLocal(func(*Ctx) { ran = true })
		})
		rts.Run()
		if !ran || len(rts.Errors()) > 0 {
			t.Errorf("%v: work after Exit ran=%v, errors %v", be, ran, rts.Errors())
		}
	}
}
