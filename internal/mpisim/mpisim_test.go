package mpisim

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newWorld(t *testing.T, plat *netmodel.Platform, ranks int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine()
	mach, net := plat.BuildMachine(eng, ranks)
	w := NewWorld(eng, mach, net, Config{
		Table:    plat.MPI,
		PutTable: plat.MPIPut,
		Recorder: trace.NewRecorder(),
	})
	return eng, w
}

func TestSendRecvBasic(t *testing.T) {
	eng, w := newWorld(t, netmodel.AbeIB, 2)
	var got *Msg
	w.Rank(1).Recv(0, 42, func(m *Msg) { got = m })
	w.Rank(0).Send(1, 42, &Msg{Size: 128})
	eng.Run()
	if got == nil || got.Src != 0 || got.Tag != 42 || got.Size != 128 {
		t.Fatalf("recv got %+v", got)
	}
}

func TestRecvPostedAfterArrival(t *testing.T) {
	eng, w := newWorld(t, netmodel.AbeIB, 2)
	w.Rank(0).Send(1, 7, &Msg{Size: 64})
	eng.Run()
	if w.Rank(1).PendingUnexpected() != 1 {
		t.Fatalf("unexpected queue depth %d", w.Rank(1).PendingUnexpected())
	}
	var got *Msg
	w.Rank(1).Recv(0, 7, func(m *Msg) { got = m })
	if got == nil {
		t.Fatal("late Recv did not match unexpected message")
	}
	if w.Rank(1).PendingUnexpected() != 0 {
		t.Fatal("unexpected queue not drained")
	}
}

func TestTagMatchingSelectsCorrectMessage(t *testing.T) {
	eng, w := newWorld(t, netmodel.AbeIB, 2)
	var gotA, gotB *Msg
	w.Rank(1).Recv(0, 2, func(m *Msg) { gotB = m })
	w.Rank(1).Recv(0, 1, func(m *Msg) { gotA = m })
	w.Rank(0).Send(1, 1, &Msg{Size: 10})
	w.Rank(0).Send(1, 2, &Msg{Size: 20})
	eng.Run()
	if gotA == nil || gotA.Tag != 1 || gotA.Size != 10 {
		t.Fatalf("tag 1 receive got %+v", gotA)
	}
	if gotB == nil || gotB.Tag != 2 || gotB.Size != 20 {
		t.Fatalf("tag 2 receive got %+v", gotB)
	}
}

// TestMatchOrderFIFOAmongEqualTags: MPI requires matching in posted order
// for identical patterns and arrival order for unexpected messages.
func TestMatchOrderFIFO(t *testing.T) {
	eng, w := newWorld(t, netmodel.AbeIB, 2)
	var order []int
	w.Rank(1).Recv(0, 3, func(m *Msg) { order = append(order, 1) })
	w.Rank(1).Recv(0, 3, func(m *Msg) { order = append(order, 2) })
	w.Rank(0).Send(1, 3, &Msg{Size: 8})
	w.Rank(0).Send(1, 3, &Msg{Size: 8})
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("posted receives matched out of order: %v", order)
	}
}

// TestSendLatencyMatchesModel: an idle-path message takes exactly the
// regime-table one-way time.
func TestSendLatencyMatchesModel(t *testing.T) {
	for _, plat := range []*netmodel.Platform{netmodel.AbeIB, netmodel.SurveyorBGP} {
		for _, size := range []int{100, 5000, 100000} {
			eng, w := newWorld(t, plat, 16)
			var at sim.Time = -1
			w.Rank(8).Recv(0, 0, func(m *Msg) { at = eng.Now() })
			w.Rank(0).Send(8, 0, &Msg{Size: size})
			eng.Run()
			want := plat.MPI.Resolve(size).OneWay()
			if at != want {
				t.Errorf("%s %dB: latency %v, want %v", plat.Name, size, at, want)
			}
		}
	}
}

func TestPSCWFullCycle(t *testing.T) {
	eng, w := newWorld(t, netmodel.AbeIB, 2)
	mach := w.Rank(0).world.mach
	target := mach.AllocRegion(1, 64, false)
	src := mach.AllocRegion(0, 64, false)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i)
	}
	win := w.NewWin([]*machine.Region{nil, target})

	var waitDone, completeDone bool
	if err := win.Post(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := win.Wait(1, func() { waitDone = true }); err != nil {
		t.Fatal(err)
	}
	if err := win.Start(0, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := win.Put(0, 1, 64, src); err != nil {
		t.Fatal(err)
	}
	if err := win.Complete(0, func() { completeDone = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !completeDone || !waitDone {
		t.Fatalf("complete=%v wait=%v", completeDone, waitDone)
	}
	if target.Bytes()[5] != 5 {
		t.Fatal("put did not move bytes")
	}
}

func TestWaitBlocksUntilAllOriginsComplete(t *testing.T) {
	eng, w := newWorld(t, netmodel.AbeIB, 3)
	win := w.NewWin(make([]*machine.Region, 3))
	var waited sim.Time = -1
	if err := win.Post(2, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := win.Wait(2, func() { waited = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := win.Start(0, []int{2}); err != nil {
		t.Fatal(err)
	}
	if err := win.Put(0, 2, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := win.Complete(0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if waited >= 0 {
		t.Fatal("Wait completed with one of two origins outstanding")
	}
	if err := win.Start(1, []int{2}); err != nil {
		t.Fatal(err)
	}
	if err := win.Put(1, 2, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := win.Complete(1, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if waited < 0 {
		t.Fatal("Wait never completed")
	}
}

func TestPutOutsideEpochRejected(t *testing.T) {
	_, w := newWorld(t, netmodel.AbeIB, 2)
	win := w.NewWin(make([]*machine.Region, 2))
	if err := win.Put(0, 1, 8, nil); err == nil {
		t.Fatal("Put without Start accepted")
	}
	if err := win.Start(0, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := win.Put(0, 0, 8, nil); err == nil {
		t.Fatal("Put to rank outside access group accepted")
	}
}

func TestEpochStateErrors(t *testing.T) {
	_, w := newWorld(t, netmodel.AbeIB, 2)
	win := w.NewWin(make([]*machine.Region, 2))
	if err := win.Wait(1, func() {}); err == nil {
		t.Fatal("Wait without Post accepted")
	}
	if err := win.Complete(0, nil); err == nil {
		t.Fatal("Complete without Start accepted")
	}
	if err := win.Post(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := win.Post(1, []int{0}); err == nil {
		t.Fatal("double Post accepted")
	}
	if err := win.Start(0, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := win.Start(0, []int{1}); err == nil {
		t.Fatal("double Start accepted")
	}
}

// TestPropertyMatchingEquivalence: the incremental matcher must agree
// with a straightforward reference executed on the same trace.
func TestPropertyMatchingEquivalence(t *testing.T) {
	type op struct {
		send bool
		tag  int
	}
	prop := func(raw []uint8) bool {
		eng, w := newWorld(t, netmodel.AbeIB, 2)
		var ops []op
		for _, b := range raw {
			ops = append(ops, op{send: b%2 == 0, tag: int(b/2) % 3})
		}
		var matchedTags []int
		sends := 0
		recvs := 0
		for _, o := range ops {
			if o.send {
				sends++
				w.Rank(0).Send(1, o.tag, &Msg{Size: 8})
			} else {
				recvs++
				w.Rank(1).Recv(0, o.tag, func(m *Msg) {
					matchedTags = append(matchedTags, m.Tag)
				})
			}
		}
		eng.Run()
		// Reference: count per-tag min(sends, recvs).
		sentPerTag := map[int]int{}
		recvPerTag := map[int]int{}
		for _, o := range ops {
			if o.send {
				sentPerTag[o.tag]++
			} else {
				recvPerTag[o.tag]++
			}
		}
		wantMatches := 0
		for tag, s := range sentPerTag {
			r := recvPerTag[tag]
			if r < s {
				wantMatches += r
			} else {
				wantMatches += s
			}
		}
		if len(matchedTags) != wantMatches {
			return false
		}
		// Every match has the tag it asked for.
		leftover := w.Rank(1).PendingUnexpected() + w.Rank(1).PendingPosted()
		return leftover == sends+recvs-2*wantMatches
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
