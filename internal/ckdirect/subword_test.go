package ckdirect

import (
	"errors"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newRealRig builds a real-backend runtime for CkDirect tests: goroutine
// workers, wall-clock time, true shared-memory puts. Drive it with
// rts.StartAt + rts.Run.
func newRealRig(t *testing.T, pes int) (*charm.RTS, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	mach, net := netmodel.AbeIB.BuildMachine(eng, pes)
	rts := charm.NewRTS(eng, mach, net, netmodel.AbeIB, trace.NewRecorder(),
		charm.Options{Checked: true, Backend: charm.RealBackend})
	return rts, NewManager(rts)
}

// TestSubWordReceiveBufferRejected: a receive buffer under 8 bytes
// cannot hold the sentinel; CreateHandle reports the typed error on both
// backends.
func TestSubWordReceiveBufferRejected(t *testing.T) {
	_, simRTS, simMgr := newRig(t, netmodel.AbeIB, 2, true)
	tiny := simRTS.Machine().AllocRegion(1, 4, false)
	if _, err := simMgr.CreateHandle(1, tiny, oob, func(*charm.Ctx) {}); !errors.As(err, new(*SubWordError)) {
		t.Fatalf("sim CreateHandle on a 4-byte buffer returned %v, want *SubWordError", err)
	}
	realRTS, realMgr := newRealRig(t, 2)
	rtiny := realRTS.Machine().AllocRegion(1, 4, false)
	if _, err := realMgr.CreateHandle(1, rtiny, oob, func(*charm.Ctx) {}); !errors.As(err, new(*SubWordError)) {
		t.Fatalf("real CreateHandle on a 4-byte buffer returned %v, want *SubWordError", err)
	}
}
