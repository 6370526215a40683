package netrt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Shared-memory transport sizing and handshake tuning.
const (
	// shmRingBytes sizes each direction's eager-frame ring: a power of
	// two (the ring masks positions) and a page multiple (every ring
	// header in the shared layout stays aligned). Frames larger than the
	// ring stream through in chunks, so this bounds batching, not frame
	// size.
	shmRingBytes = 1 << 20
	// shmArenaBytes sizes each direction's registered-buffer arena —
	// where CkDirect receive buffers are placed so a put becomes a
	// cross-process memcpy. Handles that do not fit fall back to ring
	// frames, which still avoid the kernel.
	shmArenaBytes = 4 << 20
	// maxShmBytes bounds what an offer may ask this process to map.
	maxShmBytes = 1 << 30
	// shmHandshakeTimeout bounds each step of the per-edge bootstrap
	// exchange; the edges handshake serially in rank order, so a wedged
	// peer surfaces as a typed bootstrap error instead of a hang.
	shmHandshakeTimeout = 10 * time.Second
)

// maxShmPendingBytes bounds the combiner's staging buffer: a producer
// finding it full waits for the flusher instead of growing it without
// limit.
const maxShmPendingBytes = 1 << 20

// shmLink is one live shared segment between this process and a peer:
// an outbound ring (frames we produce), an inbound ring (frames the
// peer produces, drained by this peer's ring-reader goroutine), and the
// two put arenas.
//
// Producer-side safety is a two-part discipline. mu guards the link's
// state transitions and the combiner below, but the expensive touches
// of the mapping — ring writes and arena memcpys — run OUTSIDE mu,
// covered by the prod WaitGroup: a producer registers under mu (where
// dead is checked), works on the mapping lock-free, then signals done.
// Teardown sets dead under mu and waits for prod to drain before
// unmapping, so no producer can dereference freed pages, yet two 64 KiB
// put deposits on one edge overlap instead of serializing behind the
// lock.
//
// The ring itself is SPSC, so concurrent frame producers still need an
// ordering point: the writing/pending pair is a combining lock. The
// first producer takes the write token and owns the ring; contenders
// append their encoded frames to pending (one copy — frames are
// self-delimiting, so the byte stream concatenates) and return
// immediately, and the token holder flushes the accumulated batch in
// single ring writes after its own; the count lands in coalesced.
// Direct puts never take it (directPut).
type shmLink struct {
	seg      []byte // the whole mapping (nil after teardown)
	out, in  *shmRing
	outArena []byte // we deposit puts here; peer's registered recv buffers
	inArena  []byte // peer deposits here; our registered recv buffers

	mu      sync.Mutex
	dead    bool
	prod    sync.WaitGroup
	writing bool
	pending []byte
	drained *sync.Cond // on mu: pending was taken, or the write token freed

	// coalesced, when set by the owning node, counts frames that were
	// staged behind an in-flight ring write instead of paying their own.
	coalesced *atomic.Int64

	// readerDone closes when the ring-reader goroutine exits (or is
	// known never to start); teardown waits on it so the consumer side
	// cannot touch the mapping either.
	readerDone chan struct{}
	readerOnce sync.Once
}

// enter registers a producer touch of the mapping; false means the link
// is dead. Every true return must be paired with l.prod.Done().
func (l *shmLink) enter() bool {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return false
	}
	l.prod.Add(1)
	l.mu.Unlock()
	return true
}

// markReaderDone records that the ring reader has exited or will never
// start; safe to call from multiple teardown paths.
func (l *shmLink) markReaderDone() {
	l.readerOnce.Do(func() { close(l.readerDone) })
}

// shmSegBytes is the total segment size for the given ring and arena
// budgets: two rings (header + data each) and two arenas.
func shmSegBytes(ringBytes, arenaBytes int) int {
	return 2*(shmRingHdrBytes+ringBytes) + 2*arenaBytes
}

// newShmLink overlays the link structure on a mapped segment. lower
// reports whether this process is the lower rank of the edge: the
// layout is fixed — [ring lo→hi][ring hi→lo][arena lo deposits][arena
// hi deposits] — and each side picks its directions accordingly, so
// both mappings agree without any further negotiation.
func newShmLink(seg []byte, ringBytes, arenaBytes int, lower bool) (*shmLink, error) {
	ringLen := shmRingHdrBytes + ringBytes
	loHi, err := newShmRing(seg[0:ringLen])
	if err != nil {
		return nil, err
	}
	hiLo, err := newShmRing(seg[ringLen : 2*ringLen])
	if err != nil {
		return nil, err
	}
	loArena := seg[2*ringLen : 2*ringLen+arenaBytes]
	hiArena := seg[2*ringLen+arenaBytes : 2*ringLen+2*arenaBytes]
	l := &shmLink{seg: seg, readerDone: make(chan struct{})}
	l.drained = sync.NewCond(&l.mu)
	if lower {
		l.out, l.in = loHi, hiLo
		l.outArena, l.inArena = loArena, hiArena
	} else {
		l.out, l.in = hiLo, loHi
		l.outArena, l.inArena = hiArena, loArena
	}
	return l, nil
}

// writeFrame publishes one encoded frame to the peer through the ring.
// The bytes are fully copied (into the ring or the combiner's staging
// buffer) before it returns, so the caller reclaims its buffer
// immediately. False means the link (or the peer) is down and the frame
// was dropped — the same contract as a send on a dead TCP connection. A
// staged frame reports true at staging time; it can still die with the
// link if the flusher finds it dead, which is the same frame-loss class
// as every other teardown path (only aborting runs close links).
func (l *shmLink) writeFrame(b []byte, down <-chan struct{}) bool {
	if !l.enter() {
		return false
	}
	defer l.prod.Done()
	l.mu.Lock()
	for {
		if l.dead {
			l.mu.Unlock()
			return false
		}
		if !l.writing {
			break
		}
		if len(l.pending) <= maxShmPendingBytes {
			l.pending = append(l.pending, b...)
			if l.coalesced != nil {
				l.coalesced.Add(1)
			}
			l.mu.Unlock()
			return true
		}
		// Staging buffer full: park until the flusher takes the batch or
		// gives up the token. It signals both, and it always gets there —
		// its ring write (shmRing.await) ends when the consumer frees
		// space, when the link closes, or when down does.
		l.drained.Wait()
	}
	l.writing = true
	l.mu.Unlock()
	ok := l.out.write(b, down)
	l.mu.Lock()
	for ok && !l.dead && len(l.pending) > 0 {
		batch := l.pending
		l.pending = nil
		l.drained.Broadcast()
		l.mu.Unlock()
		ok = l.out.write(batch, down)
		l.mu.Lock()
	}
	l.pending = nil
	l.writing = false
	l.drained.Broadcast()
	l.mu.Unlock()
	return ok
}

// flush waits until no producer holds the write token, so every frame
// writeFrame has accepted — staged ones included — is in the ring. Close
// calls it before the goodbye: the peer's ring reader stops at the EOF
// that follows the goodbye, and must find the last frames published.
func (l *shmLink) flush() {
	l.mu.Lock()
	for l.writing && !l.dead {
		l.drained.Wait()
	}
	l.mu.Unlock()
}

// teardown unmaps this process's view of the segment. It must only run
// after the link's consumer is gone: the caller waits for the
// ring-reader goroutine (readerDone). Producers are fenced by the
// dead flag plus the prod WaitGroup — once dead is visible no new
// producer enters, the closed ring flags kick the in-flight ones out of
// their copy loops, and the drain wait below keeps the unmap from
// racing a producer mid-memcpy. Safe to call more than once (later
// callers may return while the first is still draining; the mapping
// only falls once).
func (l *shmLink) teardown() {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	l.dead = true
	// Raise the closed flags in the shared header before dropping the
	// mapping: the peer's writer and reader observe them on their next
	// poll and exit immediately, instead of waiting for the TCP-side
	// EOF to close their down latch.
	l.out.close()
	l.in.close()
	seg := l.seg
	l.seg, l.outArena, l.inArena = nil, nil, nil
	l.mu.Unlock()
	l.prod.Wait()
	unmapShm(seg)
}

// shmServer is this node's fd-passing endpoint: an abstract-namespace
// unix listener (auto-reclaimed by the kernel when the process dies, so
// a kill -9 leaves no socket litter) serving token→memfd lookups during
// the per-edge handshakes. One server outlives all mesh epochs; tokens
// are single-use and unregistered as soon as the edge's handshake ends.
type shmServer struct {
	name string
	ln   *net.UnixListener

	mu      sync.Mutex
	pending map[string]int // token -> fd
}

func (s *shmServer) add(token string, fd int) {
	s.mu.Lock()
	s.pending[token] = fd
	s.mu.Unlock()
}

func (s *shmServer) remove(token string) {
	s.mu.Lock()
	delete(s.pending, token)
	s.mu.Unlock()
}

func (s *shmServer) lookup(token string) (int, bool) {
	s.mu.Lock()
	fd, ok := s.pending[token]
	s.mu.Unlock()
	return fd, ok
}

func (s *shmServer) close() {
	if s != nil && s.ln != nil {
		s.ln.Close()
	}
}

// serveLoop accepts fd requests until the listener closes.
func (s *shmServer) serveLoop() {
	for {
		c, err := s.ln.AcceptUnix()
		if err != nil {
			return
		}
		go s.serveOne(c)
	}
}

// serveOne answers one token lookup: read the token line, pass the
// registered fd via SCM_RIGHTS. The requester is the co-located peer
// mid-handshake, so the deadline only guards against a wedged client.
func (s *shmServer) serveOne(c *net.UnixConn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(shmHandshakeTimeout))
	tok, err := bufio.NewReaderSize(c, 256).ReadString('\n')
	if err != nil {
		return
	}
	fd, ok := s.lookup(strings.TrimSuffix(tok, "\n"))
	if !ok {
		return
	}
	sendFd(c, fd)
}

// shmServerSeq numbers the fd servers this process creates. The name must
// be unique per process, not per rank stream: two in-process worlds with
// the same Seed draw identical seeded streams, and a name taken from them
// collided on the abstract socket and left the second world's edge on TCP.
var shmServerSeq atomic.Uint64

// shmServerLazy returns the node's fd server, creating it on first use.
func (n *Node) shmServerLazy() (*shmServer, error) {
	n.shmMu.Lock()
	defer n.shmMu.Unlock()
	if n.shmSrv != nil {
		return n.shmSrv, nil
	}
	name := fmt.Sprintf("@ckshm-%d-%d-%d", os.Getpid(), n.rank, shmServerSeq.Add(1))
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: name, Net: "unix"})
	if err != nil {
		return nil, err
	}
	s := &shmServer{name: name, ln: ln, pending: make(map[string]int)}
	go s.serveLoop()
	n.shmSrv = s
	return s, nil
}

// shmEnabled reports whether this node may offer or accept segments.
func (n *Node) shmEnabled() bool { return shmSupported && !n.cfg.ShmOff }

// setupShm runs the shared-memory handshake on every edge of a freshly
// joined star, synchronously, before any connection goroutine starts —
// the frames ride the raw conns. The LOWER rank of an edge offers and
// the higher accepts, so rank 0 offers to each worker in rank order and
// each worker answers its one edge: nobody waits on anyone who is
// waiting. A first-contact edge runs the same two functions on its own
// raw conn (lazyDial offers, handleInbound accepts).
//
// The exchange always happens, even when shm is disabled or
// unsupported: the offer is then empty and the answer a decline, which
// keeps a world with mixed -net.shm settings in protocol instead of
// hanging half the ranks.
func (n *Node) setupShm(peers []*peerConn) error {
	for r := 0; r < len(peers); r++ {
		p := peers[r]
		if p == nil || r == n.rank || p.started {
			// A started peer is a first-contact edge installed while
			// startPeers was getting here: its handshake already
			// happened on the raw conn at accept time.
			continue
		}
		var err error
		if n.rank < r {
			err = n.shmOffer(p)
		} else {
			err = n.shmAccept(p)
		}
		if err != nil {
			return fmt.Errorf("shm handshake with rank %d: %w", r, err)
		}
	}
	return nil
}

// shmOffer runs the lower rank's side of one edge: create the segment,
// park its fd with the node's fd server under a one-shot token, send
// the FShmOffer (payload: fd-server address, token, host identity;
// A/B: ring and arena bytes), and wait for the peer's FShmAck. The fd
// closes as soon as the ack arrives — accepted or not, by then the peer
// has either mapped the segment or walked away, and the mapping (not
// the fd) is what keeps the memory alive. That discipline is what the
// /proc/self/fd leak assertion in the tests pins down.
func (n *Node) shmOffer(p *peerConn) error {
	offer := &Frame{Type: FShmOffer}
	fd := -1
	var seg []byte
	var token string
	var srv *shmServer
	if n.shmEnabled() {
		if s, err := n.shmServerLazy(); err == nil {
			if f, err := createShmFd(shmSegBytes(shmRingBytes, shmArenaBytes)); err == nil {
				if m, err := mapShmFd(f, shmSegBytes(shmRingBytes, shmArenaBytes)); err == nil {
					fd, seg, srv = f, m, s
					token = strconv.FormatUint(n.rand64(), 16)
					srv.add(token, fd)
					offer.A, offer.B = shmRingBytes, shmArenaBytes
					offer.Payload = []byte(srv.name + "\n" + token + "\n" + hostID())
				} else {
					closeFd(f)
				}
			}
		}
	}
	release := func() {
		if srv != nil {
			srv.remove(token)
		}
		closeFd(fd)
	}
	p.conn.SetDeadline(time.Now().Add(shmHandshakeTimeout))
	defer p.conn.SetDeadline(time.Time{})
	if err := writeFrame(p.conn, offer); err != nil {
		release()
		unmapShm(seg)
		return err
	}
	ack, err := readFrame(p.br)
	release()
	if err != nil || ack.Type != FShmAck {
		unmapShm(seg)
		if err == nil {
			err = fmt.Errorf("expected SHMACK, got frame type %d", ack.Type)
		}
		return err
	}
	if ack.A != 1 || seg == nil {
		unmapShm(seg)
		n.noteShmDeclined()
		return nil // declined: the edge stays on TCP
	}
	link, err := newShmLink(seg, shmRingBytes, shmArenaBytes, true)
	if err != nil {
		unmapShm(seg)
		n.noteShmDeclined()
		return nil
	}
	n.adoptShmLink(p, link)
	return nil
}

// noteShmDeclined counts an edge this node wanted on shm that stays on
// TCP — its own offer could not be built or was declined, or it could not
// take up a peer's offer. An edge declined by configuration (ShmOff on
// this side) is not counted.
func (n *Node) noteShmDeclined() {
	if n.shmEnabled() {
		n.shmDeclined.Add(1)
	}
}

// shmAccept runs the higher rank's side: read the offer, and — when shm
// is enabled here, the peer proved co-location, and the sizes are sane —
// dial the peer's fd server, redeem the token for the memfd, map it,
// and ack acceptance. Every failure path acks a decline instead, so
// both sides always agree on whether the link exists.
func (n *Node) shmAccept(p *peerConn) error {
	p.conn.SetDeadline(time.Now().Add(shmHandshakeTimeout))
	defer p.conn.SetDeadline(time.Time{})
	f, err := readFrame(p.br)
	if err != nil {
		return err
	}
	if f.Type != FShmOffer {
		return fmt.Errorf("expected SHMOFFER, got frame type %d", f.Type)
	}
	ringBytes, arenaBytes := int(f.A), int(f.B)
	var link *shmLink
	if n.shmEnabled() && len(f.Payload) > 0 &&
		ringBytes > 0 && arenaBytes > 0 && shmSegBytes(ringBytes, arenaBytes) <= maxShmBytes {
		if seg := n.shmRedeem(string(f.Payload), shmSegBytes(ringBytes, arenaBytes)); seg != nil {
			if l, err := newShmLink(seg, ringBytes, arenaBytes, false); err == nil {
				link = l
			} else {
				unmapShm(seg)
			}
		}
	}
	ack := &Frame{Type: FShmAck}
	if link != nil {
		ack.A = 1
	} else if len(f.Payload) > 0 {
		n.noteShmDeclined()
	}
	if err := writeFrame(p.conn, ack); err != nil {
		if link != nil {
			link.teardownNoReader()
		}
		return err
	}
	if link != nil {
		n.adoptShmLink(p, link)
	}
	return nil
}

// adoptShmLink wires a handshaken link to this node — the coalescing
// counter, and the yield budget of both ring waiters — and installs it on
// the edge.
func (n *Node) adoptShmLink(p *peerConn, l *shmLink) {
	l.coalesced = &n.shmCoalesced
	procs := n.world
	if n.oneProcess {
		procs = 1
	}
	l.out.yields = ringYields(n.world, procs, runtime.GOMAXPROCS(0), runtime.NumCPU())
	l.in.yields = l.out.yields
	p.shm.Store(l)
}

// teardownNoReader is teardown for a link whose ring reader never
// started (handshake failures only).
func (l *shmLink) teardownNoReader() {
	l.markReaderDone()
	l.teardown()
}

// shmRedeem turns an offer payload into a mapped segment: verify the
// peer is on this machine, dial its abstract-namespace fd server, trade
// the token for the memfd over SCM_RIGHTS, check the file is as big as
// promised, map it, and close the fd (the mapping holds the memory).
// Any failure returns nil and the edge stays on TCP.
func (n *Node) shmRedeem(payload string, total int) []byte {
	parts := strings.SplitN(payload, "\n", 3)
	if len(parts) != 3 || parts[2] != hostID() || hostID() == "" {
		return nil
	}
	d := net.Dialer{Timeout: shmHandshakeTimeout}
	c, err := d.Dial("unix", parts[0])
	if err != nil {
		return nil
	}
	uc, ok := c.(*net.UnixConn)
	if !ok {
		c.Close()
		return nil
	}
	defer uc.Close()
	uc.SetDeadline(time.Now().Add(shmHandshakeTimeout))
	if _, err := uc.Write([]byte(parts[1] + "\n")); err != nil {
		return nil
	}
	fd, err := recvFd(uc)
	if err != nil {
		return nil
	}
	defer closeFd(fd)
	if sz, err := fdSize(fd); err != nil || sz < int64(total) {
		return nil
	}
	seg, err := mapShmFd(fd, total)
	if err != nil {
		return nil
	}
	return seg
}

// teardownShmLinks unmaps every link in the given connection table. It
// runs only when the mesh (epoch) those connections belong to is
// finished — Close after the final run, or Rejoin after the aborted run
// unwound — and waits (bounded) for each link's ring reader to exit
// before touching the mapping. Die deliberately does NOT call this: an
// in-process "kill -9" leaves application goroutines mid-flight that
// may still be polling sentinels inside the arena, and a few MiB of
// mapping held until process exit is exactly what a real killed process
// would pin.
func teardownShmLinks(peers []*peerConn) {
	deadline := time.After(closeFlushGrace)
	for _, p := range peers {
		if p == nil {
			continue
		}
		l := p.shm.Load()
		if l == nil {
			continue
		}
		if !p.started {
			l.markReaderDone()
		}
		select {
		case <-l.readerDone:
		case <-deadline:
			continue // reader wedged: leak the mapping rather than fault it
		}
		l.teardown()
	}
}

// directPut is the paper's put over a shared segment: when the peer
// registered this handle's receive buffer (FShmReg) for the current run
// and the link is up, every byte but the last word is memcpy'd into the
// arena, and the payload's last word is release-stored into the
// sentinel position — where the receiver's poll pass acquire-loads it.
// No frame, no ring slot, no combiner: the ring only hears of it through
// putSeq, which wakes a parked reader so it can kick parked PEs. The
// receiver counts the put when it detects it (Runtime.PutLanded), so the
// caller must count it sent before calling. False means nothing was
// written and the caller must fall back to the framed path (which itself
// rides the ring when the link is up).
//
// The memcpy runs outside the link lock, covered by the prod fence:
// registrations are disjoint arena reservations made by the receiver's
// bump allocator, so two large puts on one edge overlap.
func (p *peerConn) directPut(run, id int64, payload []byte) bool {
	l := p.shm.Load()
	if l == nil || len(payload) < 8 {
		return false
	}
	p.regMu.Lock()
	reg, ok := p.regs[id]
	p.regMu.Unlock()
	if !ok || reg.run != run || reg.size != int64(len(payload)) {
		return false
	}
	l.mu.Lock()
	arena := l.outArena
	if l.dead || reg.off+reg.size > int64(len(arena)) {
		l.mu.Unlock()
		return false
	}
	l.prod.Add(1)
	l.mu.Unlock()
	defer l.prod.Done()
	body := reg.off + reg.size - 8
	copy(arena[reg.off:body], payload[:len(payload)-8])
	raceWirePublish()
	// noteShmReg only keeps 8-aligned offsets and sizes, and the arena
	// starts on a page, so the sentinel word is aligned for the atomic.
	(*atomicU64Ptr)(unsafe.Pointer(&arena[body])).store(binary.LittleEndian.Uint64(payload[len(payload)-8:]))
	l.out.publishPut()
	return true
}

// shmPutReg is one registered put target: where in the outbound arena
// this handle's receive buffer lives on the peer.
type shmPutReg struct {
	run, off, size int64
}

// noteShmReg records a peer's FShmReg registration. Registrations are
// per (handle, run): a new run's registration overwrites the old, and
// directPut checks the run before trusting one. A region that is not
// 8-aligned cannot take the sentinel's atomic store and is ignored (its
// puts stay framed); AllocPutRegion never makes one.
func (p *peerConn) noteShmReg(f Frame) {
	if f.C < 8 || f.B < 0 || f.B+f.C > int64(maxShmBytes) || (f.B|f.C)&7 != 0 {
		return
	}
	p.regMu.Lock()
	if p.regs == nil {
		p.regs = make(map[int64]shmPutReg)
	}
	p.regs[f.A] = shmPutReg{run: f.Run, off: f.B, size: f.C}
	p.regMu.Unlock()
}

// dropReg forgets a put-buffer registration (the channel's receive
// endpoint migrated away from this edge); subsequent puts on the
// handle fall back to the framed path.
func (p *peerConn) dropReg(id int64) {
	p.regMu.Lock()
	delete(p.regs, id)
	p.regMu.Unlock()
}

// allocArena carves size bytes (64-aligned) for one of this process's
// registered receive buffers out of the arena the peer deposits into.
// The bump state resets when a new run generation first allocates:
// termination of the previous generation proved no put is still in
// flight, so the whole arena is reusable.
func (p *peerConn) allocArena(gen int64, size int) ([]byte, int64, bool) {
	l := p.shm.Load()
	if l == nil || size < 8 {
		return nil, 0, false
	}
	p.arenaMu.Lock()
	defer p.arenaMu.Unlock()
	if p.arenaGen != gen {
		p.arenaGen, p.arenaOff = gen, 0
	}
	off := (p.arenaOff + 63) &^ 63
	l.mu.Lock()
	arena := l.inArena
	l.mu.Unlock()
	if arena == nil || off+size > len(arena) {
		return nil, 0, false
	}
	p.arenaOff = off + size
	return arena[off : off+size : off+size], int64(off), true
}
