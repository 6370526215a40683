package ckdirect

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newDepositRig builds a real-backend manager whose runtime is never
// started: depositBytes and depositStream run synchronously on the
// caller, which is all these oracle tests need. The real backend is
// required so handles carry a live sentinel pointer (h.sw).
func newDepositRig(t *testing.T) (*charm.RTS, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	plat := netmodel.AbeIB
	mach, net := plat.BuildMachine(eng, 2)
	rts := charm.NewRTS(eng, mach, net, plat, trace.NewRecorder(), charm.Options{Backend: charm.RealBackend})
	return rts, NewManager(rts)
}

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(i*131+7) ^ seed
	}
}

// TestDepositStreamMatchesDepositBytes is the zero-copy oracle: the
// streaming deposit (payload read straight off the wire into the
// registered receive buffer, final word staged in tail8 and returned for
// the caller's release-store) must leave the destination bit-identical
// to the two-copy reference path depositBytes.
func TestDepositStreamMatchesDepositBytes(t *testing.T) {
	rts, m := newDepositRig(t)
	mach := rts.Machine()
	noop := func(*charm.Ctx) {}

	t.Run("contiguous", func(t *testing.T) {
		const size = 256
		recvA := mach.AllocRegion(1, size, false)
		recvB := mach.AllocRegion(1, size, false)
		hA, err := m.CreateHandle(1, recvA, oob, noop)
		if err != nil {
			t.Fatal(err)
		}
		hB, err := m.CreateHandle(1, recvB, oob, noop)
		if err != nil {
			t.Fatal(err)
		}

		payload := make([]byte, size)
		fillPattern(payload, 0x5A)

		m.depositBytes(hA, payload)

		last, err := m.depositStream(hB, bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("depositStream: %v", err)
		}
		atomic.StoreUint64(hB.sw, last)

		if !bytes.Equal(recvA.Bytes(), recvB.Bytes()) {
			t.Fatal("streamed deposit differs from two-copy deposit")
		}
		if !bytes.Equal(recvA.Bytes(), payload) {
			t.Fatal("contiguous deposit does not reproduce the payload")
		}
	})
}
