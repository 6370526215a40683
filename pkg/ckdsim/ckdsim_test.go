package ckdsim_test

import (
	"testing"

	"repro/pkg/ckdsim"
)

// TestPublicAPIRoundTrip exercises the facade end to end: build a system,
// set up a channel, put, observe the callback, check bookkeeping.
func TestPublicAPIRoundTrip(t *testing.T) {
	sys := ckdsim.NewSystem(ckdsim.AbeIB(), 4, ckdsim.Options{Checked: true})
	const oob = 0xFFF0123456789ABC

	recv := sys.Machine().AllocRegion(1, 128, false)
	send := sys.Machine().AllocRegion(0, 128, false)
	for i := range send.Bytes() {
		send.Bytes()[i] = byte(i)
	}

	var fired ckdsim.Time = -1
	h, err := sys.CkDirect().CreateHandle(1, recv, oob, func(ctx *ckdsim.Ctx) {
		fired = ctx.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CkDirect().AssocLocal(h, 0, send); err != nil {
		t.Fatal(err)
	}
	sys.RTS().StartAt(0, func(ctx *ckdsim.Ctx) {
		if err := sys.CkDirect().Put(h); err != nil {
			t.Error(err)
		}
	})
	end := sys.Run()
	if fired < 0 || end < fired {
		t.Fatalf("callback at %v, run ended %v", fired, end)
	}
	if recv.Bytes()[100] != 100 {
		t.Fatal("payload not delivered")
	}
	if len(sys.Errors()) != 0 {
		t.Fatalf("unexpected errors: %v", sys.Errors())
	}
}

func TestPublicArraysAndReductions(t *testing.T) {
	sys := ckdsim.NewSystem(ckdsim.SurveyorBGP(), 4, ckdsim.Options{})
	arr := sys.RTS().NewArray("workers", ckdsim.RRMap(4))
	for i := 0; i < 10; i++ {
		arr.Insert(ckdsim.Idx1(i), nil)
	}
	total := 0.0
	arr.SetReductionClient(ckdsim.Sum, func(ctx *ckdsim.Ctx, vals []float64) {
		total = vals[0]
	})
	ep := arr.EntryMethod("go", func(ctx *ckdsim.Ctx, msg *ckdsim.Message) {
		ctx.Charge(10 * ckdsim.Microsecond)
		ctx.Contribute(float64(ctx.Index()[0]))
	})
	sys.RTS().StartAt(0, func(ctx *ckdsim.Ctx) {
		ctx.Broadcast(arr, ep, &ckdsim.Message{Size: 8})
	})
	sys.Run()
	if total != 45 {
		t.Fatalf("reduction = %v, want 45", total)
	}
}

func TestPlatformsExposed(t *testing.T) {
	ps := ckdsim.Platforms()
	if len(ps) < 2 {
		t.Fatalf("%d platforms", len(ps))
	}
	if ckdsim.AbeIB().Name != "abe-infiniband" {
		t.Fatal("AbeIB misnamed")
	}
	if ckdsim.SurveyorBGP().CkdRecvIsCallback != true {
		t.Fatal("BGP should use callback delivery")
	}
}

func TestPublicQuiescence(t *testing.T) {
	sys := ckdsim.NewSystem(ckdsim.AbeIB(), 2, ckdsim.Options{})
	ep := sys.RTS().RegisterPEHandler(func(ctx *ckdsim.Ctx, msg *ckdsim.Message) {})
	fired := false
	sys.RTS().StartAt(0, func(ctx *ckdsim.Ctx) {
		ctx.SendPE(1, ep, &ckdsim.Message{Size: 64})
		sys.RTS().OnQuiescence(func() { fired = true })
	})
	sys.Run()
	if !fired {
		t.Fatal("quiescence not detected through the public API")
	}
}
