package ckdirect

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/charm"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The direct shm put seen from CkDirect: a receive buffer placed in the
// arena is counted received at detection (PutLanded), unless the deposit
// that filled it was framed and took the credit itself — then the handle
// was marked credited and detection must not count it again. These tests
// drive both paths through one channel of a 2-rank in-process world (PEs
// 0-1 on rank 0, 2-3 on rank 1). A put counted twice, or not at all,
// leaves the run unable to terminate (or underflows realrt's work
// counter), so a run that ends with every put delivered is the check.

const shmPutSize = 1024

// shmPingPong is one rank's half of a ping-pong over two channels: A
// (PE 0 -> PE 2) and B (PE 2 -> PE 0). The A channel is what the tests
// watch; B only carries the turn back to rank 0.
type shmPingPong struct {
	node    *netrt.Node
	rts     *charm.RTS
	m       *Manager
	a, b    *Handle
	srcA    *machine.Region
	gotA    atomic.Int64 // A deliveries on rank 1
	corrupt atomic.Int64
}

func newShmPingPong(t *testing.T, node *netrt.Node, cbA, cbB func(pp *shmPingPong)) *shmPingPong {
	t.Helper()
	eng := sim.NewEngine()
	mach, net := netmodel.AbeIB.BuildMachine(eng, 4)
	pp := &shmPingPong{node: node}
	pp.rts = charm.NewRTS(eng, mach, net, netmodel.AbeIB, trace.NewRecorder(),
		charm.Options{Checked: true, Backend: charm.NetBackend, Net: node})
	pp.m = NewManager(pp.rts)
	var err error
	if pp.a, err = pp.m.CreateHandle(2, mach.AllocRegion(2, shmPutSize, false), oob, func(*charm.Ctx) { cbA(pp) }); err != nil {
		t.Fatal(err)
	}
	if pp.b, err = pp.m.CreateHandle(0, mach.AllocRegion(0, shmPutSize, false), oob, func(*charm.Ctx) { cbB(pp) }); err != nil {
		t.Fatal(err)
	}
	pp.srcA = mach.AllocRegion(0, shmPutSize, false)
	fillPayload(pp.srcA.Bytes(), 0xA0)
	srcB := mach.AllocRegion(2, shmPutSize, false)
	fillPayload(srcB.Bytes(), 0xB0)
	if err := pp.m.AssocLocal(pp.b, 2, srcB); err != nil {
		t.Fatal(err)
	}
	return pp
}

func fillPayload(b []byte, v byte) {
	for i := range b {
		b[i] = v + byte(i%7)
	}
}

// onA is rank 1's A callback body: check the bytes, re-arm, pass the turn.
func (pp *shmPingPong) onA() {
	want := make([]byte, shmPutSize)
	fillPayload(want, 0xA0)
	if !bytes.Equal(pp.a.recvBuf.Bytes(), want) {
		pp.corrupt.Add(1)
	}
	pp.gotA.Add(1)
	pp.m.Ready(pp.a)
}

// runShmPingPong runs both ranks' setup and Run concurrently — before0
// runs ahead of rank 0's setup, before1 between rank 1's setup (A's
// placement in the arena) and its Run — and fails the test if either
// run errs or the world does not terminate.
func runShmPingPong(t *testing.T, ranks [2]*shmPingPong, before0, before1 func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		before0()
		if err := ranks[0].m.AssocLocal(ranks[0].a, 0, ranks[0].srcA); err != nil {
			t.Error(err)
		}
		ranks[0].rts.StartAt(0, func(*charm.Ctx) { ranks[0].m.Put(ranks[0].a) })
		ranks[0].rts.Run()
	}()
	go func() {
		defer wg.Done()
		if err := ranks[1].m.AssocLocal(ranks[1].a, 0, ranks[1].srcA); err != nil {
			t.Error(err)
		}
		before1()
		ranks[1].rts.Run()
	}()
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("ping-pong did not terminate: a put was counted twice or never")
	}
	for r, pp := range ranks {
		if errs := pp.rts.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d: %v", r, errs)
		}
	}
	if c := ranks[1].corrupt.Load(); c != 0 {
		t.Fatalf("%d A deliveries carried the wrong bytes", c)
	}
}

func startShmPair(t *testing.T) []*netrt.Node {
	t.Helper()
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nettest.CloseAll(t, nodes) })
	return nodes
}

// awaitPut returns once the node has sent a cross-rank put.
func awaitPut(n *netrt.Node) {
	for s := n.Stats(); s.PutsDirect+s.PutsFramed == 0; s = n.Stats() {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestShmPutBeforeRestoreIsNotLost: rank 1 places A's receive buffer in
// the arena, then — as a checkpoint restore does between setup and Run —
// writes the saved bytes back over it, armed sentinel included, after
// rank 0's first put has gone out. Had the registration left at
// placement, rank 0 (held back long enough for it to arrive) would have
// deposited directly and the restore would have erased the put: the run
// could never end. Held until Run, it leaves the put framed, buffered
// until rank 1 attaches, and delivered once.
func TestShmPutBeforeRestoreIsNotLost(t *testing.T) {
	nodes := startShmPair(t)
	var ranks [2]*shmPingPong
	ranks[1] = newShmPingPong(t, nodes[1], func(pp *shmPingPong) {
		pp.onA()
		pp.m.Put(pp.b)
	}, nil)
	ranks[0] = newShmPingPong(t, nodes[0], nil, func(pp *shmPingPong) { pp.m.Ready(pp.b) })
	runShmPingPong(t, ranks, func() { time.Sleep(50 * time.Millisecond) }, func() {
		awaitPut(nodes[0])
		a := ranks[1].a
		saved := make([]byte, shmPutSize)
		binary.LittleEndian.PutUint64(saved[shmPutSize-8:], a.oob)
		copy(a.recvBuf.Bytes(), saved)
	})
	if got := ranks[1].gotA.Load(); got != 1 {
		t.Fatalf("A delivered %d times, want once", got)
	}
	if st := nodes[0].Stats(); st.PutsDirect != 0 || st.PutsFramed != 1 {
		t.Fatalf("the first put went %d direct / %d framed, want framed", st.PutsDirect, st.PutsFramed)
	}
}

// TestShmPutRaceWithRegistration: rank 1 starts its run (which sends A's
// registration) only after rank 0's first put left framed, so that put
// is replayed into the arena buffer by the frame path; once the
// registration reaches rank 0, later puts go direct. Every put is
// delivered once and the world terminates.
func TestShmPutRaceWithRegistration(t *testing.T) {
	nodes := startShmPair(t)
	var ranks [2]*shmPingPong
	ranks[1] = newShmPingPong(t, nodes[1], func(pp *shmPingPong) {
		pp.onA()
		pp.m.Put(pp.b)
	}, nil)
	var rounds int
	ranks[0] = newShmPingPong(t, nodes[0], nil, func(pp *shmPingPong) {
		pp.m.Ready(pp.b)
		if rounds++; pp.node.Stats().PutsDirect < 3 && rounds < 100000 {
			pp.m.Put(pp.a)
		}
	})
	runShmPingPong(t, ranks, func() {}, func() { awaitPut(nodes[0]) })
	if !ranks[1].a.arena {
		t.Fatal("A's receive buffer was not placed in the arena")
	}
	st := nodes[0].Stats()
	if st.PutsFramed < 1 || st.PutsDirect < 3 {
		t.Fatalf("rank 0 sent %d framed and %d direct A puts, want >= 1 and >= 3", st.PutsFramed, st.PutsDirect)
	}
	if got, sent := ranks[1].gotA.Load(), st.PutsDirect+st.PutsFramed; got != sent {
		t.Fatalf("%d A puts sent, %d delivered", sent, got)
	}
}

// TestShmPutAfterRehomeGoesFramed: once A's receive end is rehomed (PE 2
// to PE 3 — same rank, so the buffer stays where it is, in the arena),
// the registration is gone and every later put is framed into that
// arena buffer. Each is counted once, by the frame path only.
func TestShmPutAfterRehomeGoesFramed(t *testing.T) {
	const after = 20
	nodes := startShmPair(t)
	var phase atomic.Int32 // 1 once rank 0 has rehomed A's mirror
	var ranks [2]*shmPingPong
	rehomed := false
	ranks[1] = newShmPingPong(t, nodes[1], func(pp *shmPingPong) {
		pp.onA()
		if phase.Load() == 1 && !rehomed {
			rehomed = true
			pp.m.RehomeRecv(pp.a, 3, func() { pp.m.Put(pp.b) })
			return
		}
		pp.m.Put(pp.b)
	}, nil)
	var directAtRehome int64
	var framedAfter int
	ranks[0] = newShmPingPong(t, nodes[0], nil, func(pp *shmPingPong) {
		pp.m.Ready(pp.b)
		switch {
		case phase.Load() == 0 && pp.node.Stats().PutsDirect >= 3:
			directAtRehome = pp.node.Stats().PutsDirect
			phase.Store(1)
			pp.m.RehomeRecv(pp.a, 3, func() { pp.m.Put(pp.a) })
		case phase.Load() == 1 && framedAfter < after:
			framedAfter++
			pp.m.Put(pp.a)
		case phase.Load() == 0:
			pp.m.Put(pp.a)
		}
	})
	runShmPingPong(t, ranks, func() {}, func() {})
	if !rehomed || ranks[1].a.recvPE != 3 || !ranks[1].a.arena {
		t.Fatalf("rehome did not happen as staged (rehomed %v, recvPE %d, arena %v)", rehomed, ranks[1].a.recvPE, ranks[1].a.arena)
	}
	st := nodes[0].Stats()
	if st.PutsDirect != directAtRehome {
		t.Fatalf("%d puts went direct after the rehome", st.PutsDirect-directAtRehome)
	}
	if st.PutsFramed < after+1 {
		t.Fatalf("%d framed puts, want at least the %d after the rehome", st.PutsFramed, after+1)
	}
	if got, sent := ranks[1].gotA.Load(), st.PutsDirect+st.PutsFramed; got != sent {
		t.Fatalf("%d A puts sent, %d delivered", sent, got)
	}
}
