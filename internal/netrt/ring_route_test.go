package netrt

import (
	"testing"
	"time"
)

// TestRidesRingClassifiesEveryFrame pins the ring/TCP rule type by type.
// Only membership and liveness stay on TCP; everything else rides the
// ring on a shm edge. The table must name every frame type, so a new type
// fails here until someone decides where it travels.
func TestRidesRingClassifiesEveryFrame(t *testing.T) {
	ring := map[byte]bool{
		FHello:    false,
		FJoin:     false,
		FPeers:    false,
		FEager:    true,
		FRTS:      true,
		FCTS:      true,
		FData:     true,
		FPut:      true,
		FCast:     true,
		FProbe:    true,
		FReport:   true,
		FHalt:     true,
		FPing:     false,
		FBye:      false,
		FLeave:    false,
		FJob:      true,
		FJobDone:  true,
		FShmOffer: false,
		FShmAck:   false,
		FShmReg:   true,
		FMove:     true,
		FLoc:      true,
		FDialReq:  false,
	}
	for typ := FHello; typ < frameTypeMax; typ++ {
		want, ok := ring[typ]
		if !ok {
			t.Errorf("frame type %d is not classified: decide whether it rides the ring and add it here", typ)
			continue
		}
		if got := ridesRing(typ); got != want {
			t.Errorf("ridesRing(%d) = %v, want %v", typ, got, want)
		}
	}
	if len(ring) != int(frameTypeMax-FHello) {
		t.Errorf("table names %d types, the codec has %d", len(ring), frameTypeMax-FHello)
	}
}

// TestShmJobFramesRideTheRing: on a shm edge the job announce and the
// job report are ring frames — each advances its direction's ring tail by
// exactly its encoded length — and both still reach the job channel. On a
// ShmOff world the same calls arrive over TCP.
func TestShmJobFramesRideTheRing(t *testing.T) {
	for _, shmOff := range []bool{false, true} {
		if !shmOff && !shmSupported {
			continue
		}
		nodes := startWorldConfig(t, 2, Config{ShmOff: shmOff})
		spec, report := []byte(`{"kind":"stencil"}`), []byte(`{"rank":1,"ok":true}`)
		var down, up *shmLink
		var downTail, upTail uint64
		if !shmOff {
			down, up = shmLinkOf(nodes, 0, 1), shmLinkOf(nodes, 1, 0)
			if down == nil || up == nil {
				t.Fatal("2-rank world negotiated no shm link")
			}
			downTail, upTail = down.out.tail.load(), up.out.tail.load()
		}
		workerC, coordC := nodes[1].JobFrames(), nodes[0].JobFrames()

		if !nodes[0].SendJob(1, 42, spec) {
			t.Fatal("SendJob refused")
		}
		if down != nil {
			if got, want := down.out.tail.load()-downTail, uint64(frameWireLen(len(spec))); got != want {
				t.Errorf("announce moved the 0->1 ring tail by %d bytes, want %d", got, want)
			}
		}
		jf := awaitJobFrame(t, workerC)
		if jf.Done || jf.Seq != 42 || jf.Rank != 0 || string(jf.Payload) != string(spec) {
			t.Fatalf("shmOff=%v: worker got %+v", shmOff, jf)
		}

		if !nodes[1].SendJobDone(42, report) {
			t.Fatal("SendJobDone refused")
		}
		if up != nil {
			if got, want := up.out.tail.load()-upTail, uint64(frameWireLen(len(report))); got != want {
				t.Errorf("report moved the 1->0 ring tail by %d bytes, want %d", got, want)
			}
		}
		jf = awaitJobFrame(t, coordC)
		if !jf.Done || jf.Seq != 42 || jf.Rank != 1 || string(jf.Payload) != string(report) {
			t.Fatalf("shmOff=%v: coordinator got %+v", shmOff, jf)
		}
	}
}

func awaitJobFrame(t *testing.T, c <-chan JobFrame) JobFrame {
	t.Helper()
	select {
	case jf := <-c:
		return jf
	case <-time.After(5 * time.Second):
		t.Fatal("job frame never arrived")
		return JobFrame{}
	}
}
