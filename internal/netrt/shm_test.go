package netrt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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

// TestShmTwoWorldsSameSeed: two in-process worlds with the same Seed,
// alive at once, each negotiate shm on every edge and decline none. The
// fd server's name used to come from the seeded rank stream, so the
// second world's rank 0 collided with the first's on the abstract socket
// and its edges silently stayed on TCP.
func TestShmTwoWorldsSameSeed(t *testing.T) {
	skipNoShm(t)
	worlds := [][]*Node{
		startWorldConfig(t, 3, Config{Seed: 42}),
		startWorldConfig(t, 3, Config{Seed: 42}),
	}
	for w, nodes := range worlds {
		lazyExchange(t, nodes, 1, 2)
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				if a != b && shmLinkOf(nodes, a, b) == nil {
					t.Errorf("world %d: edge %d->%d has no shm link", w, a, b)
				}
			}
			if d := nodes[a].Stats().ShmDeclined; d != 0 {
				t.Errorf("world %d rank %d: %d shm offers declined", w, a, d)
			}
		}
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

// The direct put at the transport level. These tests put from rank 1 to
// rank 2 of a 3-rank world: that edge opens at first contact and carries
// no termination traffic (probes and reports ride the 0<->r rings), so
// its outbound ring moves only if a put rides it, and the reader on it
// parks as soon as its budget runs out.
const (
	dpSender, dpRecv = 1, 2
	dpOOB            = 0xFFF8_DEAD_BEEF_0001
)

// directPutRig is one registered arena buffer on the 1->2 edge, with the
// receiving PE's poll pass reduced to what ckdirect's realDetect does for
// a direct put: acquire-load the sentinel, PutLanded, re-arm, return the
// credit. Detection can be held back (gate) and is timestamped.
type directPutRig struct {
	nodes   []*Node
	rts     []*Runtime
	buf     []byte
	payload []byte

	gate     atomic.Bool
	landed   atomic.Int64
	bodyOK   atomic.Bool
	lastPoll atomic.Int64 // unix ns of the receiving PE's last poll pass
	landedAt atomic.Int64 // unix ns of the last detection
	sank     atomic.Int64 // puts that arrived framed
}

func newDirectPutRig(t *testing.T, size int) *directPutRig {
	t.Helper()
	skipNoShm(t)
	g := &directPutRig{nodes: startWorld(t, 3)}
	lazyExchange(t, g.nodes, dpSender, dpRecv)
	for i, n := range g.nodes {
		rt, err := n.NewRuntime(3)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
		g.rts = append(g.rts, rt)
		if i == dpRecv {
			rt.SetPutSink(func(int64, []byte) { g.sank.Add(1) })
		}
	}
	g.payload = bytes.Repeat([]byte{0xC7}, size)
	binary.LittleEndian.PutUint64(g.payload[size-8:], 0x0807060504030201)
	g.buf = registerArenaBuffer(t, g.rts, dpSender, dpRecv, 7, size)
	recv := g.rts[dpRecv]
	sw := sentinelOf(g.buf)
	g.gate.Store(true)
	recv.SetPoll(func(pe int, full bool) bool {
		g.lastPoll.Store(time.Now().UnixNano())
		if !g.gate.Load() || atomic.LoadUint64(sw) == dpOOB {
			return false
		}
		recv.PutLanded()
		g.landedAt.Store(time.Now().UnixNano())
		g.bodyOK.Store(bytes.Equal(g.buf[:size-8], g.payload[:size-8]))
		atomic.StoreUint64(sw, dpOOB)
		recv.PutDetected()
		g.landed.Add(1)
		return true
	})
	return g
}

// registerArenaBuffer carves size bytes for handle id out of the arena
// rank send deposits into on rank recv, arms its sentinel and registers
// it; the registration leaves when the receiver's Run starts.
func registerArenaBuffer(t *testing.T, rts []*Runtime, send, recv int, id int64, size int) []byte {
	t.Helper()
	buf, off, ok := rts[recv].AllocPutRegion(send, size)
	if !ok {
		t.Fatal("AllocPutRegion failed despite a live shm link")
	}
	atomic.StoreUint64(sentinelOf(buf), dpOOB)
	if !rts[recv].RegisterPutBuffer(send, id, off, int64(size)) {
		t.Fatal("RegisterPutBuffer failed")
	}
	return buf
}

// awaitReg waits for the sender's connection to record rank recv's
// registration of handle id.
func awaitReg(t *testing.T, nodes []*Node, rts []*Runtime, send, recv int, id int64) {
	t.Helper()
	p := nodes[send].peerTable()[recv]
	waitFor(t, "the registration to reach the sender", func() bool {
		p.regMu.Lock()
		defer p.regMu.Unlock()
		_, ok := p.regs[id]
		return ok && p.regs[id].run == rts[recv].gen
	})
}

func sentinelOf(buf []byte) *uint64 { return (*uint64)(unsafe.Pointer(&buf[len(buf)-8])) }

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// run starts every runtime with the sender holding one extra credit, so
// the run cannot halt while the test looks at it, and waits for the
// registration to reach the sender; release returns the credit and waits
// for the run to end.
func (g *directPutRig) run(t *testing.T) (release func()) {
	t.Helper()
	sender := g.rts[dpSender]
	sender.PutIssued()
	done := make(chan struct{})
	go func() {
		runAll(g.rts)
		close(done)
	}()
	awaitReg(t, g.nodes, g.rts, dpSender, dpRecv, 7)
	return func() {
		t.Helper()
		sender.Enqueue(dpSender, sender.PutDetected)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("run did not terminate")
		}
		for i, rt := range g.rts {
			if errs := rt.Errors(); len(errs) > 0 {
				t.Fatalf("rank %d: %v", i, errs)
			}
		}
	}
}

// sums is what a termination probe taken now would add up.
func (g *directPutRig) sums() (s, r int64) {
	for _, rt := range g.rts {
		_, rs, rr := rt.localReport()
		s, r = s+rs, r+rr
	}
	return s, r
}

// TestShmDirectPut: a registered put is the paper's put. It writes no
// byte to the ring; between its publish and its detection the sums a
// probe would add up differ (the receipt is taken at detection, so
// termination cannot conclude around a landed, undetected put); and
// detection balances both the counters and the receiver's credits.
func TestShmDirectPut(t *testing.T) {
	g := newDirectPutRig(t, 1024)
	g.gate.Store(false)
	l := shmLinkOf(g.nodes, dpSender, dpRecv)
	tail := l.out.tail.load()
	release := g.run(t)
	sender, recv := g.rts[dpSender], g.rts[dpRecv]
	sender.Enqueue(dpSender, func() { sender.SendPut(dpRecv, 7, g.payload) })
	waitFor(t, "the sentinel store", func() bool { return atomic.LoadUint64(sentinelOf(g.buf)) != dpOOB })
	if s, r := g.sums(); s != 1 || r != 0 {
		t.Fatalf("probe between publish and detection: sent %d, received %d; want 1, 0", s, r)
	}
	g.gate.Store(true)
	recv.Kick(dpRecv)
	waitFor(t, "detection", func() bool { return g.landed.Load() == 1 })
	if s, r := g.sums(); s != r {
		t.Fatalf("after detection: sent %d, received %d", s, r)
	}
	if n := recv.rt.Outstanding(); n != 1 {
		t.Fatalf("receiver holds %d credits after detection, want only the hold", n)
	}
	release()
	if got := l.out.tail.load(); got != tail {
		t.Fatalf("a direct put moved the ring tail %d -> %d", tail, got)
	}
	if !g.bodyOK.Load() {
		t.Fatal("arena body did not match the payload at detection")
	}
	st := g.nodes[dpSender].Stats()
	if g.sank.Load() != 0 || st.PutsDirect != 1 || st.PutsFramed != 0 {
		t.Fatalf("puts direct %d framed %d (sink saw %d), want 1 direct", st.PutsDirect, st.PutsFramed, g.sank.Load())
	}
}

// TestShmDirectPutWakesParkedReceiver: the receiving PE has parked and
// the ring reader is in its futex wait, so nothing polls the sentinel.
// The put's putSeq bump wakes the reader, the reader kicks the PE, and
// the PE's full poll detects it — well inside the reader's futex timeout,
// which has escalated past 10 ms by then.
func TestShmDirectPutWakesParkedReceiver(t *testing.T) {
	g := newDirectPutRig(t, 1024)
	release := g.run(t)
	in := shmLinkOf(g.nodes, dpRecv, dpSender).in
	waitFor(t, "the receiver to park", func() bool {
		last := g.lastPoll.Load()
		return in.dataWait.load() != 0 && last != 0 && time.Since(time.Unix(0, last)) > 20*time.Millisecond
	})
	time.Sleep(40 * time.Millisecond) // futex timeouts 2+4+8+16 ms: the next is 32
	if in.dataWait.load() == 0 || time.Since(time.Unix(0, g.lastPoll.Load())) < 40*time.Millisecond {
		t.Fatalf("receiver woke with nothing to do: armed %d, last poll %v ago", in.dataWait.load(), time.Since(time.Unix(0, g.lastPoll.Load())))
	}
	var sentAt atomic.Int64
	sender := g.rts[dpSender]
	sender.Enqueue(dpSender, func() {
		sentAt.Store(time.Now().UnixNano())
		sender.SendPut(dpRecv, 7, g.payload)
	})
	waitFor(t, "detection", func() bool { return g.landed.Load() == 1 })
	if d := time.Duration(g.landedAt.Load() - sentAt.Load()); d > 10*time.Millisecond {
		t.Fatalf("parked receiver detected the put after %v, want < 10ms", d)
	}
	release()
}

// TestShmDirectPutFramedAfterDrop: once the registration is dropped (the
// channel's receive end migrated, DropPutBuffer on every rank), puts into
// the still arena-resident buffer take the framed path — and each put,
// direct or framed, is counted once on each side.
func TestShmDirectPutFramedAfterDrop(t *testing.T) {
	g := newDirectPutRig(t, 1024)
	recv := g.rts[dpRecv]
	// A framed arrival's credit discipline (ckdirect's sinks deposit too,
	// and mark the buffer so detection does not count it again — the
	// ckdirect tests cover that half): credit here, receipt in handleApp,
	// credit returned by the "detection" task.
	recv.SetPutSink(func(int64, []byte) {
		recv.PutIssued()
		g.sank.Add(1)
		recv.Enqueue(dpRecv, recv.PutDetected)
	})
	release := g.run(t)
	sender := g.rts[dpSender]
	sender.Enqueue(dpSender, func() { sender.SendPut(dpRecv, 7, g.payload) })
	waitFor(t, "the direct put", func() bool { return g.landed.Load() == 1 })
	for _, rt := range g.rts {
		rt.DropPutBuffer(7)
	}
	sender.Enqueue(dpSender, func() { sender.SendPut(dpRecv, 7, g.payload) })
	waitFor(t, "the framed put", func() bool { return g.sank.Load() == 1 })
	waitFor(t, "matched sums", func() bool { s, r := g.sums(); return s == 2 && r == 2 })
	release()
	if st := g.nodes[dpSender].Stats(); st.PutsDirect != 1 || st.PutsFramed != 1 || g.landed.Load() != 1 {
		t.Fatalf("puts direct %d framed %d detected-direct %d, want 1/1/1", st.PutsDirect, st.PutsFramed, g.landed.Load())
	}
}

// TestShmDirectPutSurvivesDie: a rank dies (the in-process kill -9) while
// the other side's deposits are streaming into the arena. Both runs
// unwind, Close still gets past every link's producer fence (a put that
// entered and never left would hang its teardown), and the pool ledger
// balances.
func TestShmDirectPutSurvivesDie(t *testing.T) {
	for _, victim := range []int{0, 1} {
		t.Run([]string{"sender", "receiver"}[victim], func(t *testing.T) {
			skipNoShm(t)
			before := bufpool.Default.Stats()
			nodes, err := StartLocalConfig(2, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rts := make([]*Runtime, 2)
			for i, n := range nodes {
				if rts[i], err = n.NewRuntime(2); err != nil {
					t.Fatal(err)
				}
				rts[i].SetDeliver(func(e Env, pooled []byte) { bufpool.Put(pooled) })
			}
			const size = 64 << 10
			buf := registerArenaBuffer(t, rts, 0, 1, 3, size)
			rts[1].SetPoll(func(pe int, full bool) bool {
				if atomic.LoadUint64(sentinelOf(buf)) == dpOOB {
					return false
				}
				rts[1].PutLanded()
				atomic.StoreUint64(sentinelOf(buf), dpOOB)
				rts[1].PutDetected()
				return true
			})
			payload := bytes.Repeat([]byte{0x5A}, size)
			var stream func()
			stream = func() {
				for i := 0; i < 16 && !rts[0].Aborted(); i++ {
					rts[0].SendPut(1, 3, payload)
				}
				if !rts[0].Aborted() {
					rts[0].Enqueue(0, stream)
				}
			}
			rts[0].Enqueue(0, stream)
			done := make(chan struct{})
			go func() {
				runAll(rts)
				close(done)
			}()
			awaitReg(t, nodes, rts, 0, 1, 3)
			waitFor(t, "deposits to stream", func() bool { return nodes[0].Stats().PutsDirect > 64 })
			nodes[victim].Die()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("runs hung after the kill")
			}
			links := []*shmLink{shmLinkOf(nodes, 0, 1), shmLinkOf(nodes, 1, 0)}
			closed := make(chan struct{})
			go func() {
				for _, n := range nodes {
					n.Close()
				}
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(30 * time.Second):
				t.Fatal("Close hung on a link's producer fence")
			}
			for i, l := range links {
				l.mu.Lock()
				seg := l.seg
				l.mu.Unlock()
				if seg != nil {
					t.Errorf("rank %d's link was not torn down", i)
				}
			}
			poolSettles(t, before)
		})
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
