package netrt

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// First-contact dialing is how the mesh grows past the star: the
// coordinator distributes the full address map with FPeers, and a
// worker-to-worker socket opens the first time one of the two ranks
// sends to the other, so a world whose communication graph is sparse (a
// stencil halo, a reduction tree) opens O(N) connections instead of the
// O(N²) full mesh. The star (rank 0 <-> every worker) is built by Start
// and Rejoin: it carries the join handshake, job traffic, the FBye and
// FLeave relays, and dial requests.
//
// The connection initiator is ALWAYS the lower rank of an edge — the
// same convention as the star, where workers dial rank 0 — which fixes
// the shm roles (lower offers, higher accepts) on the raw conn and makes
// simultaneous-open glare impossible. When the HIGHER rank needs an edge
// first, it sends an FDialReq through rank 0's star; the lower rank
// receives it and dials. Frames sent while the edge is in flight stash,
// in order, in the sender's per-rank lazySlot and flush before the
// connection publishes.
const (
	// lazyHandshakeTimeout bounds the first-frame read on an inbound
	// connection (FHello or FJoin), so a port-scanner's idle socket
	// cannot pin a handleInbound goroutine.
	lazyHandshakeTimeout = 10 * time.Second
	// lazyReqTimeout bounds how long a requester waits for the lower
	// rank to dial back after an FDialReq before declaring the peer
	// lost. It comfortably exceeds a full dialRetry backoff run.
	lazyReqTimeout = 45 * time.Second
)

// lazySlot serializes edge establishment toward one peer rank.
type lazySlot struct {
	mu      sync.Mutex
	stash   [][]byte // encoded frames awaiting the edge, in send order
	dialing bool     // an establishment attempt (dial or FDialReq) is in flight
}

// inboundJoin is an FJoin taken off the accept loop, parked for rank
// 0's gatherJoins.
type inboundJoin struct {
	p    *peerConn
	rank int
	addr string
}

// lazyEnqueue stashes one encoded frame for a rank whose edge does not
// exist yet and kicks establishment. A frame of mesh epoch e >= 0 is
// refused once the node has moved past e (sendIn). Ownership of b
// transfers on true.
func (n *Node) lazyEnqueue(rank int, b []byte, e int64) bool {
	s := &n.lazySlots[rank]
	s.mu.Lock()
	// The edge may have published while we took the slot lock.
	if t := n.peerTable(); t != nil && t[rank] != nil {
		s.mu.Unlock()
		return (e < 0 || t[rank].epoch == e) && t[rank].send(b)
	}
	n.mu.Lock()
	closing := n.closing
	dead := n.dead[rank]
	epoch := n.epoch.Load()
	n.mu.Unlock()
	if closing || dead || e >= 0 && e != epoch {
		s.mu.Unlock()
		return false
	}
	s.stash = append(s.stash, b)
	if !s.dialing {
		s.dialing = true
		if n.rank < rank {
			go n.lazyDial(rank, epoch)
		} else {
			// The lower rank must dial: relay the request through the
			// coordinator's star (off the slot lock — rank 0's outbox
			// can block) and watchdog the round trip.
			n.dialReqs.Add(1)
			req := Frame{Type: FDialReq, A: int64(rank), B: int64(n.rank)}
			go n.sendTo(0, &req)
			go n.lazyReqWatchdog(rank, epoch)
		}
	}
	s.mu.Unlock()
	return true
}

// lazyDial establishes the edge to a higher rank: dial, FHello, shm
// offer, then install — the one place an FHello is written. Runs on its
// own goroutine, throttled by the dialSem so an N-edge burst doesn't
// thundering-herd the accept queues.
func (n *Node) lazyDial(rank int, epoch int64) {
	n.dialSem <- struct{}{}
	defer func() { <-n.dialSem }()
	n.mu.Lock()
	var addr string
	if rank < len(n.addrs) {
		addr = n.addrs[rank]
	}
	n.mu.Unlock()
	if n.epoch.Load() != epoch {
		return // obsoleted by a Rejoin, whose drain also reset the slot
	}
	if addr == "" {
		n.lazyDialFailed(rank, epoch, fmt.Errorf("no address for rank %d", rank))
		return
	}
	conn, err := n.dialRetry(addr, dialAttempts)
	if err != nil {
		n.lazyDialFailed(rank, epoch, err)
		return
	}
	p := newPeerConn(n, rank, conn)
	p.epoch = epoch
	err = writeFrame(conn, &Frame{Type: FHello, A: int64(n.rank)})
	if err == nil {
		// Lower rank of the edge: offer the shared segment, synchronously
		// on the raw conn, as rank 0 does on a star edge.
		err = n.shmOffer(p)
	}
	if err != nil {
		conn.Close()
		n.lazyDialFailed(rank, epoch, err)
		return
	}
	n.connsDialed.Add(1)
	n.installLazy(rank, p)
}

// installLazy publishes a freshly established edge (dialed or accepted):
// start the connection goroutines, flush the stash in order, publish
// the connection table copy-on-write, clear the in-flight flag. The
// slot lock is held across the flush so concurrent senders keep
// stashing (or blocking) until order is guaranteed; the started writer
// drains the outbox concurrently, so the flush cannot deadlock.
func (n *Node) installLazy(rank int, p *peerConn) {
	s := &n.lazySlots[rank]
	s.mu.Lock()
	defer s.mu.Unlock()
	n.mu.Lock()
	stale := p.epoch != n.epoch.Load() || n.closing || n.peers[rank] != nil
	n.mu.Unlock()
	if stale {
		// A rejoin reset the mesh while this edge was in flight (or a
		// duplicate raced in): this connection belongs to a dead epoch.
		// Close it; the stash, if any, drains with the slot reset.
		if l := p.shm.Load(); l != nil {
			l.teardownNoReader()
		}
		p.quiet.Store(true)
		p.conn.Close()
		s.dialing = false
		return
	}
	p.start()
	for _, b := range s.stash {
		if !p.send(b) {
			bufpool.Put(b)
		}
	}
	s.stash = nil
	n.mu.Lock()
	if p.epoch == n.epoch.Load() && !n.closing {
		n.peers[rank] = p
		n.publishPeers()
	} else {
		p.close()
	}
	n.mu.Unlock()
	s.dialing = false
}

// lazyDialFailed surfaces a failed establishment exactly like a broken
// live connection: drop the stash, record the dead peer, abort the
// attached run, cascade the FBye.
func (n *Node) lazyDialFailed(rank int, epoch int64, err error) {
	s := &n.lazySlots[rank]
	s.mu.Lock()
	for _, b := range s.stash {
		bufpool.Put(b)
	}
	s.stash = nil
	s.dialing = false
	s.mu.Unlock()
	ne := &NetError{Rank: n.rank, Peer: rank, Op: "dial", Err: err}
	n.mu.Lock()
	if n.epoch.Load() != epoch || n.closing {
		n.mu.Unlock()
		return
	}
	rt := n.attached.Load()
	if n.deadErr == nil {
		n.deadErr = ne
	}
	n.dead[rank] = true
	n.mu.Unlock()
	if rt != nil {
		rt.abort(ne)
		n.broadcastBye(rank, ne)
	}
}

// lazyReqWatchdog bounds the FDialReq round trip: if the lower rank has
// not dialed back within lazyReqTimeout, the peer (or the coordinator
// relay) is gone and the stashed frames' run must abort rather than
// hang in termination detection.
func (n *Node) lazyReqWatchdog(rank int, epoch int64) {
	deadline := time.Now().Add(lazyReqTimeout)
	for time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		if n.epoch.Load() != epoch {
			return
		}
		if t := n.peerTable(); t != nil && t[rank] != nil {
			return
		}
		s := &n.lazySlots[rank]
		s.mu.Lock()
		done := !s.dialing
		s.mu.Unlock()
		if done {
			return
		}
	}
	n.lazyDialFailed(rank, epoch, fmt.Errorf("rank %d never dialed back after dial request", rank))
}

// onDialReq handles an FDialReq: rank 0 relays it to the rank that
// should dial; that rank kicks (idempotently) a lazyDial toward the
// requester.
func (n *Node) onDialReq(f Frame) {
	dialer, requester := int(f.A), int(f.B)
	if dialer < 0 || dialer >= n.world || requester <= dialer || requester >= n.world {
		return
	}
	if n.rank == 0 && dialer != 0 {
		n.sendOpen(dialer, &Frame{Type: FDialReq, A: f.A, B: f.B})
		return
	}
	if dialer != n.rank {
		return
	}
	s := &n.lazySlots[requester]
	s.mu.Lock()
	t := n.peerTable()
	if (t == nil || t[requester] == nil) && !s.dialing {
		s.dialing = true
		go n.lazyDial(requester, n.epoch.Load())
	}
	s.mu.Unlock()
}

// acceptLoop owns the listener for the node's lifetime. It exits when
// the listener closes (Close or Die). The listener is passed in rather
// than read from n.ln — Close nils that field concurrently.
func (n *Node) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go n.handleInbound(conn)
	}
}

// handleInbound classifies one inbound connection by its first frame —
// the single reader of both opening handshakes. An FHello is a lower
// rank's first-contact dial and becomes a mesh edge here. An FJoin is a
// rank joining the star: rank 0 parks it on joinC for gatherJoins, while
// it bootstraps and, under Recover, for as long as it lives (a fast
// respawn can dial back in before the coordinator has noticed the
// death; the rank on the other end is blocked reading FPeers, and the
// next Rejoin answers it). Anything else — a worker sent an FJoin, a
// join nobody will ever gather, an unknown frame, silence until the
// deadline — closes the connection and touches nothing else.
func (n *Node) handleInbound(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(lazyHandshakeTimeout))
	p := newPeerConn(n, -1, conn)
	f, err := readFrame(p.br)
	r := int(f.A)
	switch {
	case err != nil:
	case f.Type == FHello && r >= 0 && r < n.rank:
		// The dialer just offered the shared segment: accept (or decline)
		// it on the raw conn, then install.
		p.rank = r
		if n.shmAccept(p) == nil {
			n.connsAccepted.Add(1)
			n.installLazy(r, p)
			return
		}
	case f.Type == FJoin && n.rank == 0 && (n.cfg.Recover || n.live.Load() == nil):
		conn.SetReadDeadline(time.Time{})
		select {
		case n.joinC <- inboundJoin{p: p, rank: r, addr: string(f.Payload)}:
			return
		default: // no gather could be this far behind
		}
	}
	conn.Close()
}

// drainLazyStashes returns every stashed frame's pooled buffer; Close,
// Die and Rejoin call it once no flush can happen anymore.
func (n *Node) drainLazyStashes() {
	for i := range n.lazySlots {
		s := &n.lazySlots[i]
		s.mu.Lock()
		for _, b := range s.stash {
			bufpool.Put(b)
		}
		s.stash = nil
		s.dialing = false
		s.mu.Unlock()
	}
}
