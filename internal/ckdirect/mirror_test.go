package ckdirect

import (
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMirrorEndpointsAreSizesOnly: on a net rank (rank 0 of two, PEs 0-1
// of 4) a channel endpoint on a PE another rank runs takes a sizes-only
// region and gets no sentinel or Ctx, while an endpoint on a hosted PE
// still refuses one; a send endpoint rehomed onto a hosted PE gains
// storage of its size and drops it when it leaves again.
func TestMirrorEndpointsAreSizesOnly(t *testing.T) {
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	eng := sim.NewEngine()
	mach, net := netmodel.AbeIB.BuildMachine(eng, 4)
	rts := charm.NewRTS(eng, mach, net, netmodel.AbeIB, trace.NewRecorder(),
		charm.Options{Backend: charm.NetBackend, Net: nodes[0]})
	m := NewManager(rts)
	cb := func(*charm.Ctx) {}

	h, err := m.CreateHandle(2, mach.AllocRegion(2, 64, true), oob, cb)
	if err != nil {
		t.Fatalf("mirror receive endpoint: %v", err)
	}
	if h.sw != nil || h.recvCtx != nil {
		t.Fatalf("mirror handle has sentinel %v, Ctx %v", h.sw, h.recvCtx)
	}
	if _, err := m.CreateHandle(0, mach.AllocRegion(0, 64, true), oob, cb); err == nil {
		t.Fatal("a hosted receive endpoint accepted a sizes-only region")
	}
	if err := m.AssocLocal(h, 3, mach.AllocRegion(3, 64, true)); err != nil {
		t.Fatalf("mirror send endpoint: %v", err)
	}
	h2, err := m.CreateHandle(3, mach.AllocRegion(3, 64, true), oob, cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AssocLocal(h2, 0, mach.AllocRegion(0, 64, true)); err == nil {
		t.Fatal("a hosted send endpoint accepted a sizes-only region")
	}

	m.RehomeSend(h, 1)
	if got := len(h.sendBuf.Bytes()); got != 64 {
		t.Fatalf("source rehomed onto hosted PE 1 holds %d bytes, want 64", got)
	}
	m.RehomeSend(h, 2)
	if !h.sendBuf.Virtual() {
		t.Fatal("source rehomed off this rank kept its storage")
	}
	if errs := rts.Errors(); len(errs) > 0 {
		t.Fatal(errs)
	}
}
