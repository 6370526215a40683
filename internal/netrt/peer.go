package netrt

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
)

// Connection tuning.
const (
	// outboxCap bounds the per-peer send queue; a producer that fills it
	// blocks, which is TCP backpressure surfaced to the runtime.
	outboxCap = 4096
	// ioBufBytes sizes the per-connection read buffer.
	ioBufBytes = 64 << 10
	// maxBatchFrames caps one writev: the writer coalesces whatever
	// the outbox holds, up to this many frames, into a single vectored
	// write, and a lone frame leaves alone (the batch ends at an empty
	// outbox, so nothing waits for a batch to fill). The cap also
	// bounds the writer's retained state: its batch arrays hold at most
	// maxBatchFrames slice headers, and the frame bytes themselves are
	// pooled buffers returned right after the writev (see DESIGN.md §9).
	maxBatchFrames = 256
	// keepaliveEvery paces idle FPing frames.
	keepaliveEvery = 500 * time.Millisecond
	// peerTimeout is how long a silent peer stays healthy. Keepalives
	// flow every keepaliveEvery, so a peer silent this long is dead or
	// wedged, not idle.
	peerTimeout = 10 * time.Second
	// dialAttempts and dialBaseDelay shape the bootstrap dial retry:
	// exponential backoff with jitter, roughly 25ms..13s total.
	dialAttempts  = 10
	dialBaseDelay = 25 * time.Millisecond
	dialTimeout   = 3 * time.Second
	// dialMaxDelay caps the backoff window: without it the doubling
	// grows without bound, and a restarting rank that retries long
	// enough ends up sleeping for minutes between attempts. The cap
	// also keeps the jittered sleeps of many simultaneous re-dialers
	// spread across a bounded window instead of an ever-wider one.
	dialMaxDelay = 2 * time.Second
	// rejoinDialAttempts stretches the retry budget for Rejoin: the
	// coordinator may spend several seconds reaping and respawning a
	// dead rank before it starts accepting, and with the capped backoff
	// this is roughly a 30-second window.
	rejoinDialAttempts = 20
)

// peerConn is one live connection to a peer rank: a batching writer
// goroutine fed by an outbox channel, a reader goroutine that decodes
// frames into the node's dispatch, and a keepalive ticker that doubles
// as the health monitor.
type peerConn struct {
	node  *Node
	rank  int
	epoch int64 // mesh incarnation this connection belongs to
	conn  net.Conn
	br    *bufio.Reader

	out  chan []byte
	down chan struct{}

	started  bool // connection goroutines are running (set in start)
	failed   atomic.Bool
	quiet    atomic.Bool // graceful close: suppress the read-error report
	lastRecv atomic.Int64

	// shm, when set, is the shared-memory link negotiated for this edge
	// at bootstrap: every frame but membership and liveness rides its
	// ring (ridesRing; the TCP connection keeps those, and its EOF is the
	// death signal), and registered puts deposit into its arena.
	shm atomic.Pointer[shmLink]

	// regs records the peer's FShmReg put-buffer registrations (by
	// handle id); directPut consults them.
	regMu sync.Mutex
	regs  map[int64]shmPutReg

	// arenaGen/arenaOff are the bump allocator over the inbound arena —
	// where THIS process places registered receive buffers for the peer
	// to deposit into. The bump resets when a new run generation first
	// allocates (termination proved the old puts drained).
	arenaMu  sync.Mutex
	arenaGen int64
	arenaOff int
}

func newPeerConn(n *Node, rank int, conn net.Conn) *peerConn {
	if tc, ok := conn.(*net.TCPConn); ok {
		// Frames are already batched by the writer; leaving Nagle on
		// would add a delayed-ack round trip to every pingpong.
		tc.SetNoDelay(true)
	}
	p := &peerConn{
		node:  n,
		rank:  rank,
		epoch: n.epoch.Load(),
		conn:  conn,
		br:    bufio.NewReaderSize(conn, ioBufBytes),
		out:   make(chan []byte, outboxCap),
		down:  make(chan struct{}),
	}
	p.lastRecv.Store(time.Now().UnixNano())
	return p
}

// start launches the connection goroutines. Called once bootstrap
// handshakes on this connection are complete. An edge with a shared
// segment gets a fourth goroutine: the ring reader, running the same
// frame loop as the TCP reader over the inbound ring.
func (p *peerConn) start() {
	p.started = true
	go p.writer()
	go p.reader()
	go p.keepalive()
	if l := p.shm.Load(); l != nil {
		go p.ringReader(l)
	}
}

// ridesRing reports whether a frame type takes the shared-memory ring
// when the edge has one. Everything does except membership and liveness:
// the bootstrap handshakes (which run on the raw socket before any ring
// exists), keepalives, and the departure and dial-relay frames, which
// stay on TCP beside the EOF that is the instant death signal.
//
// A frame sent through the kernel is read late exactly when it matters:
// while PEs and ring readers spin, no P runs dry, and Go reaches the
// netpoller only from a P with nothing to run (sysmon's 10 ms poll
// aside). A TCP probe sat for 0.5–2 ms of a 2 ms job, a put-buffer
// registration (FShmReg) arrived after hundreds of a stencil's puts, and
// a worker entered a served job's run a mean 380–500 µs after rank 0
// (22–24 µs with the job announce, FJob, on the ring; 2-rank in-process
// world, 2 vCPUs). On the ring, the reader that is hot for the app's
// frames picks each up in the same pass.
//
// Nothing depends on the order of a TCP frame against ring frames:
// termination is counter-based and probes are idempotent, a put that
// outruns its registration is framed, and FLeave follows a finished run.
// The one place that needs care is shutdown, where the last ring frames
// (the serve shutdown announce) must be read before the goodbye's EOF
// stops the reader: Node.Close flushes the ring before the goodbye, and
// shmRing.await looks at the ring once more when the link goes down.
func ridesRing(t byte) bool {
	switch t {
	case FHello, FJoin, FPeers, FShmOffer, FShmAck, FPing, FBye, FLeave, FDialReq:
		return false
	}
	return true
}

// send queues an encoded frame, blocking on a full outbox. It reports
// false when the peer is down; the caller's failure handling already
// ran (or is running) via peerDown, so dropping the frame is correct —
// the run is aborting. On true the frame belongs to the connection:
// either the writer writes-and-Puts it, or the teardown drain Puts it.
//
// Ring-class frames (ridesRing) on an shm edge take the ring instead:
// the bytes are copied into the segment synchronously (the ring write IS
// the wire write — no goroutine handoff, no syscall) and the pooled
// buffer is reclaimed here, keeping the pool ledger identical across
// transports.
func (p *peerConn) send(b []byte) bool {
	if l := p.shm.Load(); l != nil && ridesRing(b[3]) {
		if !l.writeFrame(b, p.down) {
			return false
		}
		bufpool.Put(b)
		return true
	}
	select {
	case p.out <- b:
	case <-p.down:
		return false
	}
	p.reclaimIfDown()
	return true
}

// reclaimIfDown closes the enqueue/teardown race: when down is closed
// and the outbox has capacity, the enqueuing select may pick the send
// case even though the writer — and its drain — already exited, which
// would strand the frame (a pool leak). Re-checking down after the
// enqueue catches that ordering; each stranded frame is drained by
// exactly one goroutine (channel receive is exclusive), so no double
// Put is possible.
func (p *peerConn) reclaimIfDown() {
	select {
	case <-p.down:
		p.drainOutbox()
	default:
	}
}

// writer drains the outbox into the socket with vectored I/O: queued
// frames coalesce into one net.Buffers writev — no flat copy-assembled
// batch buffer exists — and each frame's pooled buffer goes back to the
// pool the moment the writev covering it returns.
func (p *peerConn) writer() {
	defer p.drainOutbox()
	// owned keeps the original pooled slice headers: Buffers.WriteTo
	// advances its entries as it consumes them, so the batch handed to
	// the kernel cannot double as the Put list. backing is the batch's
	// permanent storage — WriteTo also advances the batch slice itself,
	// so re-appending into the advanced slice would silently reallocate
	// the header array on every round; re-slicing backing restores the
	// full capacity instead.
	owned := make([][]byte, 0, maxBatchFrames)
	backing := make([][]byte, maxBatchFrames)
	var batch net.Buffers
	for {
		var b []byte
		select {
		case b = <-p.out:
		case <-p.down:
			return
		}
		owned = owned[:0]
		closing := false
		for {
			if b == nil {
				// Graceful-close marker queued by close(): everything
				// ahead of it is written; then the socket closes so the
				// peer reads the goodbye, then a clean EOF.
				closing = true
				break
			}
			owned = append(owned, b)
			if len(owned) == maxBatchFrames {
				break
			}
			select {
			case b = <-p.out:
				continue
			default:
			}
			break
		}
		if len(owned) > 0 {
			n := copy(backing, owned)
			batch = net.Buffers(backing[:n])
			raceWirePublish()
			_, err := batch.WriteTo(p.conn)
			for i, fb := range owned {
				bufpool.Put(fb)
				owned[i] = nil
			}
			if err != nil {
				p.fail("write", err)
				return
			}
		}
		if closing {
			p.shutdown()
			return
		}
	}
}

// drainOutbox returns any frames still queued on a dead connection to
// the pool — the run is aborting, nobody will write them, and leaving
// them checked out would read as a leak to the pool's debug tracking.
func (p *peerConn) drainOutbox() {
	for {
		select {
		case b := <-p.out:
			bufpool.Put(b)
		default:
			return
		}
	}
}

// reader runs the frame loop over the TCP socket.
func (p *peerConn) reader() {
	p.fail("read", p.readLoop(p.br))
}

// ringReader runs the identical frame loop over the inbound shm ring,
// so a frame dispatches byte-for-byte the same whichever transport
// carried it. Stream end — io.EOF once the connection's down latch
// closes or the ring's closed flag rises, io.ErrUnexpectedEOF when the
// close cut a frame mid-body — is NEVER a peer death: the flag can only
// be raised deliberately (the local latch, or the remote's Rejoin/Close
// teardown, whose TCP goodbye may still be in flight), and a crashed
// process cannot raise it at all — its death reaches us as the TCP
// socket's EOF. Reporting ring stream-end through fail() would race the
// remote's FLeave and record a live, gracefully-leaving peer as dead.
// A real protocol error on the ring (corrupt frame) still kills the
// edge exactly as a corrupt TCP stream would.
func (p *peerConn) ringReader(l *shmLink) {
	defer l.markReaderDone()
	br := bufio.NewReaderSize(&shmRingReader{ring: l.in, down: p.down, onPut: p.node.kickPEs}, ioBufBytes)
	err := p.readLoop(br)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return
	}
	p.fail("read", err)
}

// readLoop decodes frames from one transport stream and hands them to
// the node until the stream errors. Only the fixed header+meta is read
// into stack scratch; the payload lands either directly in the
// preregistered destination region (streamed FPut — no intermediate
// copy anywhere) or in a pooled buffer whose ownership passes to
// dispatch when dispatch reports the payload consumed.
func (p *peerConn) readLoop(br *bufio.Reader) error {
	for {
		m, err := readFrameMeta(br)
		if err != nil {
			return err
		}
		raceWireObserve()
		p.lastRecv.Store(time.Now().UnixNano())
		if m.typ == FPut && m.payloadLen > 0 {
			handled, err := p.node.streamPut(p, br, m)
			if err != nil {
				return err
			}
			if handled {
				continue
			}
		}
		f := Frame{Type: m.typ, Run: m.run, A: m.a, B: m.b, C: m.c, D: m.d}
		var pooled []byte
		if m.payloadLen > 0 {
			pooled = bufpool.Get(m.payloadLen)
			if _, err := io.ReadFull(br, pooled); err != nil {
				bufpool.Put(pooled)
				return err
			}
			f.Payload = pooled
		}
		if !p.node.dispatch(p, f) && pooled != nil {
			bufpool.Put(pooled)
		}
	}
}

// keepalive sends idle pings and declares the peer dead when nothing —
// not even a ping — arrived for peerTimeout. Each ping is a fresh
// pooled encode: the writer returns every frame it writes to the pool,
// so a single reused ping buffer would be a double Put.
func (p *peerConn) keepalive() {
	t := time.NewTicker(keepaliveEvery)
	defer t.Stop()
	for {
		select {
		case <-p.down:
			return
		case <-t.C:
		}
		ping := appendFrameHeader(bufpool.Get(frameWireLen(0))[:0], FPing, 0, 0, 0, 0, 0, 0)
		select {
		case p.out <- ping:
			p.reclaimIfDown()
		default: // outbox full: traffic is flowing, no ping needed
			bufpool.Put(ping)
		}
		idle := time.Since(time.Unix(0, p.lastRecv.Load()))
		if idle > peerTimeout {
			p.fail("keepalive", &timeoutError{idle: idle})
		}
	}
}

type timeoutError struct{ idle time.Duration }

func (e *timeoutError) Error() string {
	return "no traffic for " + e.idle.Round(time.Millisecond).String()
}

// fail tears the connection down once and reports it to the node.
func (p *peerConn) fail(op string, err error) {
	if !p.failed.CompareAndSwap(false, true) {
		return
	}
	p.conn.Close()
	close(p.down)
	if p.quiet.Load() {
		return
	}
	p.node.peerDown(p, op, err)
}

// shutdown closes the socket without reporting — the quiet half of
// fail, for planned teardown.
func (p *peerConn) shutdown() {
	if p.failed.CompareAndSwap(false, true) {
		p.conn.Close()
		close(p.down)
	}
}

// close shuts the connection down gracefully. With the connection
// goroutines running, a nil marker rides the outbox behind any queued
// frames (the FLeave goodbye in particular): the writer flushes
// everything ahead of it and only then closes the socket, so the peer
// reads the goodbye before the EOF.
func (p *peerConn) close() {
	p.quiet.Store(true)
	if !p.started {
		p.shutdown()
		return
	}
	select {
	case p.out <- nil:
	case <-p.down:
	default:
		// Outbox jammed mid-teardown: hard close rather than block.
		p.shutdown()
	}
}

// dialRetry dials addr with exponential backoff and jitter, within the
// caller's attempt budget (Rejoin uses a longer one) — worker processes
// race the coordinator's listen during bootstrap, and a refused
// connection a few milliseconds in is expected, not fatal. The backoff
// doubles up to dialMaxDelay and never past it, so many ranks
// re-dialing a restarting coordinator stay jittered across a bounded
// window instead of thundering in ever-wider synchronized bursts.
// Jitter draws from the node's seeded per-rank stream, not the global
// math/rand source: every rank of a world gets an independent,
// reproducible schedule instead of whatever the process-wide generator
// happens to hold.
func (n *Node) dialRetry(addr string, attempts int) (net.Conn, error) {
	var lastErr error
	delay := dialBaseDelay
	for attempt := 0; attempt < attempts; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		// Full jitter: sleep a uniform fraction of the doubling window
		// so simultaneous dialers do not reconverge on the same instant.
		time.Sleep(time.Duration(n.rand64()%uint64(delay)) + delay/2)
		if delay < dialMaxDelay {
			delay *= 2
			if delay > dialMaxDelay {
				delay = dialMaxDelay
			}
		}
	}
	return nil, lastErr
}
