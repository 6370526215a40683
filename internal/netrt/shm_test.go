package netrt

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// skipNoShm skips tests that need the linux shm transport.
func skipNoShm(t *testing.T) {
	t.Helper()
	if !shmSupported {
		t.Skip("shm transport unsupported on this platform")
	}
}

// shmLinkOf returns the negotiated link from rank a to rank b, or nil.
func shmLinkOf(nodes []*Node, a, b int) *shmLink {
	p := nodes[a].peerTable()[b]
	if p == nil {
		return nil
	}
	return p.shm.Load()
}

// TestShmLinksNegotiated checks that a co-located world comes up with a
// shared-memory link on every edge, that app frames genuinely ride the
// rings (the ring positions move), and that payloads cross intact.
func TestShmLinksNegotiated(t *testing.T) {
	skipNoShm(t)
	// The star negotiates at bootstrap; the 1<->2 edge negotiates when
	// traffic first opens it, so open it before looking at every edge.
	nodes := startWorld(t, 3)
	lazyExchange(t, nodes, 1, 2)
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if a == b {
				continue
			}
			if shmLinkOf(nodes, a, b) == nil {
				t.Fatalf("edge %d->%d has no shm link", a, b)
			}
		}
	}
	rts := make([]*Runtime, 3)
	for i, n := range nodes {
		rt, err := n.NewRuntime(3)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	payload := bytes.Repeat([]byte{0xA5}, 600)
	var delivered atomic.Int64
	var bad atomic.Int64
	for i := range rts {
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) {
			if !bytes.Equal(e.Data, payload) {
				bad.Add(1)
			}
			delivered.Add(1)
			bufpool.Put(pooled)
		})
	}
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Data: payload})
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 2, Data: payload})
	})
	runAll(rts)
	if delivered.Load() != 2 || bad.Load() != 0 {
		t.Fatalf("delivered=%d corrupt=%d, want 2/0", delivered.Load(), bad.Load())
	}
	if l := shmLinkOf(nodes, 0, 1); l.out.tail.load() == 0 {
		t.Fatal("eager frame did not ride the shm ring")
	}
}

// TestShmOffStaysOnTCP pins the opt-out: with ShmOff everywhere, no
// edge negotiates a link (the handshake declines in protocol) and
// traffic still flows over TCP.
func TestShmOffStaysOnTCP(t *testing.T) {
	nodes, err := StartLocalConfig(2, Config{ShmOff: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	if shmLinkOf(nodes, 0, 1) != nil || shmLinkOf(nodes, 1, 0) != nil {
		t.Fatal("ShmOff world negotiated a shm link")
	}
	exchangeOne(t, nodes)
}

// TestShmMixedWorldDeclines brings up a world where only one side
// enables shm: the handshake must complete (no hang) with every edge on
// TCP, whichever side of an edge is the offerer.
func TestShmMixedWorldDeclines(t *testing.T) {
	skipNoShm(t)
	for flip := 0; flip < 2; flip++ {
		nodes := startMixedWorld(t, []bool{flip == 0, flip == 1})
		if shmLinkOf(nodes, 0, 1) != nil || shmLinkOf(nodes, 1, 0) != nil {
			t.Fatalf("mixed world (off rank %d) negotiated a link", flip)
		}
		exchangeOne(t, nodes)
		for _, n := range nodes {
			n.Close()
		}
	}
}

// startMixedWorld bootstraps an in-process world with per-rank ShmOff.
func startMixedWorld(t *testing.T, shmOff []bool) []*Node {
	t.Helper()
	world := len(shmOff)
	nodes := make([]*Node, world)
	errs := make([]error, world)
	addrC := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nodes[0], errs[0] = Start(Config{Rank: 0, World: world, Coord: "127.0.0.1:0",
			ShmOff: shmOff[0], OnListen: func(a string) { addrC <- a }})
	}()
	addr := <-addrC
	for r := 1; r < world; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[r], errs[r] = Start(Config{Rank: r, World: world, Coord: addr, ShmOff: shmOff[r]})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return nodes
}

// exchangeOne round-trips one eager message across a two-rank world.
func exchangeOne(t *testing.T, nodes []*Node) {
	t.Helper()
	rts := make([]*Runtime, len(nodes))
	for i, n := range nodes {
		rt, err := n.NewRuntime(len(nodes))
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	var delivered atomic.Int64
	for i := range rts {
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) { delivered.Add(1); bufpool.Put(pooled) })
	}
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Data: []byte{1, 2, 3}})
	})
	runAll(rts)
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d errors: %v", i, errs)
		}
	}
	if delivered.Load() != 1 {
		t.Fatalf("delivered %d, want 1", delivered.Load())
	}
}

// TestEagerBoundary pins the eager/rendezvous split at exactly the
// threshold, on both transports: a message whose wire size equals
// -net.eager must go eager (threshold inclusive), one byte more must go
// rendezvous, and the two transports must agree — the split is decided
// once in SendMsg, before the transport is chosen.
func TestEagerBoundary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shmOff bool
	}{{"shm", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.shmOff {
				skipNoShm(t)
			}
			const eagerMax = 512
			nodes, err := StartLocalConfig(2, Config{ShmOff: tc.shmOff, EagerMax: eagerMax})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, n := range nodes {
					n.Close()
				}
			}()
			rts := make([]*Runtime, 2)
			for i, n := range nodes {
				rt, err := n.NewRuntime(2)
				if err != nil {
					t.Fatal(err)
				}
				rts[i] = rt
			}
			sizes := map[int]int{} // delivered data length -> count
			var mu sync.Mutex
			for i := range rts {
				rt := rts[i]
				rt.SetDeliver(func(e Env, pooled []byte) {
					mu.Lock()
					sizes[len(e.Data)]++
					mu.Unlock()
					bufpool.Put(pooled)
				})
			}
			// EnvWireSize = envFixed + len(Data): pick Data lengths that
			// put the encoded message at threshold-1, exactly at the
			// threshold, and one past it.
			wire := []int{eagerMax - 1, eagerMax, eagerMax + 1}
			rts[0].Enqueue(0, func() {
				for _, w := range wire {
					rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1,
						Data: make([]byte, w-envFixed)})
				}
			})
			runAll(rts)
			for _, rt := range rts {
				if errs := rt.Errors(); len(errs) > 0 {
					t.Fatal(errs)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, w := range wire {
				if sizes[w-envFixed] != 1 {
					t.Errorf("wire size %d delivered %d times, want once", w, sizes[w-envFixed])
				}
			}
			// The rendezvous machinery must have been used exactly once:
			// only the threshold+1 message allocates a transfer id.
			rts[0].xferMu.Lock()
			xfers := rts[0].nextXfer
			rts[0].xferMu.Unlock()
			if xfers != 1 {
				t.Errorf("rendezvous transfers = %d, want exactly 1 (only the %d-byte message)",
					xfers, eagerMax+1)
			}
		})
	}
}

// TestShmDirectPutDoorbell drives the registered-buffer fast path at
// the transport level: the receiver carves a destination out of the
// shared arena and registers it, the sender's SendPut then deposits by
// memcpy and rings a 48-byte doorbell, and the receiver's doorbell hook
// observes the sentinel word with the body already in place.
func TestShmDirectPutDoorbell(t *testing.T) {
	skipNoShm(t)
	nodes := startWorld(t, 2)
	rts := make([]*Runtime, 2)
	for i, n := range nodes {
		rt, err := n.NewRuntime(2)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
		rt.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
	}

	const handleID, size = 7, 64
	buf, off, ok := rts[1].AllocPutRegion(0, size)
	if !ok {
		t.Fatal("AllocPutRegion failed despite a live shm link")
	}
	payload := bytes.Repeat([]byte{0xC7}, size)
	copy(payload[size-8:], []byte{1, 2, 3, 4, 5, 6, 7, 8}) // sentinel word
	var last atomic.Uint64
	var bodyOK atomic.Bool
	rt1 := rts[1]
	rt1.SetPutDoorbell(func(id int64, l uint64) {
		rt1.PutIssued()
		if id == handleID {
			last.Store(l)
			bodyOK.Store(bytes.Equal(buf[:size-8], payload[:size-8]))
		}
		rt1.Enqueue(1, func() { rt1.PutDetected() })
	})
	var sank atomic.Int64
	rt1.SetPutSink(func(id int64, b []byte) { sank.Add(1) })
	if !rts[1].RegisterPutBuffer(0, handleID, off, size) {
		t.Fatal("RegisterPutBuffer send failed")
	}
	// The registration is a control frame on the TCP stream; wait for
	// the sender's connection to record it before putting.
	sender := nodes[0].peerTable()[1]
	deadline := time.Now().Add(5 * time.Second)
	for {
		sender.regMu.Lock()
		_, ok := sender.regs[handleID]
		sender.regMu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registration never reached the sender")
		}
		time.Sleep(time.Millisecond)
	}
	rts[0].Enqueue(0, func() { rts[0].SendPut(1, handleID, payload) })
	runAll(rts)
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) > 0 {
			t.Fatalf("rank %d: %v", i, errs)
		}
	}
	if got := last.Load(); got != 0x0807060504030201 {
		t.Fatalf("doorbell sentinel word %#x, want the payload's last word", got)
	}
	if !bodyOK.Load() {
		t.Fatal("arena body did not match the payload at doorbell time")
	}
	if sank.Load() != 0 {
		t.Fatal("registered put fell back to the frame path")
	}
}

// memfdCount counts this process's open memfd file descriptors.
func memfdCount(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil {
			continue // the fd used to read the directory, or already closed
		}
		if strings.Contains(target, "memfd:") {
			n++
		}
	}
	return n
}

// TestShmNoFdLeakAcrossEpochs pins the segment-lifecycle discipline:
// the memfd closes as soon as both sides map the segment, so a running
// shm world holds ZERO memfd descriptors — across bootstrap, an
// in-process rank kill, the rejoin that remaps fresh segments for the
// new mesh epoch, and final Close.
func TestShmNoFdLeakAcrossEpochs(t *testing.T) {
	skipNoShm(t)
	if before := memfdCount(t); before != 0 {
		t.Fatalf("%d memfds open before the test", before)
	}

	var mu sync.Mutex
	nodes := make([]*Node, 2)
	respawn := func(r int) {
		n, err := Start(Config{Rank: r, World: 2, Coord: nodes[0].Addr(), Recover: true})
		if err != nil {
			t.Errorf("respawn rank %d: %v", r, err)
			return
		}
		mu.Lock()
		nodes[r] = n
		mu.Unlock()
	}
	ns, err := StartLocalConfig(2, Config{Recover: true, OnRespawn: respawn})
	if err != nil {
		t.Fatal(err)
	}
	copy(nodes, ns)
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	if shmLinkOf(nodes, 0, 1) == nil {
		t.Fatal("no shm link after bootstrap")
	}
	if got := memfdCount(t); got != 0 {
		t.Fatalf("%d memfds open with the world up (fd must close once mapped)", got)
	}

	// Kill rank 1 in-process and rebuild the mesh: the new epoch must
	// negotiate a FRESH segment (remap, not reuse) and still hold no fd.
	oldLink := shmLinkOf(nodes, 0, 1)
	nodes[1].Die()
	awaitDeath(t, nodes[0])
	mu.Lock()
	nodes[1] = nil
	mu.Unlock()
	if err := nodes[0].Rejoin(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	awaitRespawn(t, &mu, nodes, 1)
	newLink := shmLinkOf(nodes, 0, 1)
	if newLink == nil {
		t.Fatal("no shm link after rejoin")
	}
	if newLink == oldLink {
		t.Fatal("rejoin reused the dead epoch's segment instead of remapping")
	}
	if got := memfdCount(t); got != 0 {
		t.Fatalf("%d memfds open after rejoin", got)
	}
	exchangeOne(t, nodes)

	mu.Lock()
	for _, n := range nodes {
		n.Close()
	}
	nodes[0], nodes[1] = nil, nil
	mu.Unlock()
	if got := memfdCount(t); got != 0 {
		t.Fatalf("%d memfds open after Close", got)
	}
}

// FuzzShmTransport feeds one fuzzed frame through both transports — a
// real TCP pair and an shm ring pair — and requires byte-identical
// dispatch: same frame meta, same payload bytes, from the same encoded
// input. The ring reader IS the TCP read loop over a different
// io.Reader, and this pins that equivalence against drift.
func FuzzShmTransport(f *testing.F) {
	f.Add(byte(FEager), int64(1), int64(2), int64(3), int64(4), int64(5), []byte("payload"))
	f.Add(byte(FPut), int64(0), int64(12), int64(1), int64(-9), int64(0), bytes.Repeat([]byte{7}, 600))
	f.Add(byte(FProbe), int64(9), int64(0), int64(0), int64(0), int64(0), []byte{})
	f.Add(byte(FShmReg), int64(2), int64(7), int64(64), int64(128), int64(0), []byte{})
	f.Fuzz(func(t *testing.T, typ byte, run, a, b, c, d int64, payload []byte) {
		fr := &Frame{Type: typ, Run: run, A: a, B: b, C: c, D: d, Payload: payload}
		enc, err := EncodeFrame(fr)
		if err != nil {
			return // invalid type or oversized payload: never reaches a transport
		}

		type arrival struct {
			m       frameMeta
			payload []byte
			err     error
		}
		readOne := func(br *bufio.Reader) arrival {
			m, err := readFrameMeta(br)
			if err != nil {
				return arrival{err: err}
			}
			p := make([]byte, m.payloadLen)
			if _, err := io.ReadFull(br, p); err != nil {
				return arrival{err: err}
			}
			return arrival{m: m, payload: p}
		}

		// shm ring pair (writes chunk through a ring smaller than many
		// fuzzed frames, so producer and consumer run concurrently).
		ring, err := newShmRing(make([]byte, shmRingHdrBytes+4096))
		if err != nil {
			t.Fatal(err)
		}
		down := make(chan struct{})
		defer close(down)
		go ring.write(enc, down)
		viaRing := readOne(bufio.NewReaderSize(&shmRingReader{ring: ring, down: down}, ioBufBytes))

		// TCP pair.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			c.Write(enc)
		}()
		sc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		sc.SetReadDeadline(time.Now().Add(10 * time.Second))
		viaTCP := readOne(bufio.NewReaderSize(sc, ioBufBytes))

		if (viaRing.err == nil) != (viaTCP.err == nil) {
			t.Fatalf("transports disagree on decode: ring=%v tcp=%v", viaRing.err, viaTCP.err)
		}
		if viaRing.err != nil {
			return
		}
		if viaRing.m != viaTCP.m {
			t.Fatalf("frame meta diverged:\n ring %+v\n tcp  %+v", viaRing.m, viaTCP.m)
		}
		if !bytes.Equal(viaRing.payload, viaTCP.payload) {
			t.Fatal("payload bytes diverged between transports")
		}
		if viaRing.m.typ != fr.Type || viaRing.m.run != fr.Run ||
			viaRing.m.a != fr.A || viaRing.m.b != fr.B ||
			viaRing.m.c != fr.C || viaRing.m.d != fr.D ||
			!bytes.Equal(viaRing.payload, fr.Payload) {
			t.Fatalf("dispatch fields diverged from the encoded frame: %+v vs %+v", viaRing.m, fr)
		}
	})
}
