package netrt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/realrt"
	"repro/internal/rng"
)

// DefaultEagerMax is the eager/rendezvous threshold: an encoded message
// envelope at most this large rides a single eager frame; anything
// bigger negotiates an RTS/CTS exchange first — the same protocol split
// the netmodel personalities price for the simulator.
const DefaultEagerMax = 4096

// closeFlushGrace bounds how long Close waits for the connection
// writers to flush the FLeave goodbyes before the sockets (and likely
// the process) go away. A live writer drains the goodbye in
// microseconds; the grace only matters when a peer has stopped reading.
const closeFlushGrace = 5 * time.Second

// Config describes this process's membership in a net-backend world.
type Config struct {
	// Rank is this process's rank in [0,World); -1 selects self-spawn
	// (this process becomes rank 0 and launches the others itself).
	Rank int
	// World is the number of processes.
	World int
	// Peers is the static launch's address plan, one listen address per
	// rank. It is a deployment setting, not a second bootstrap: rank r
	// listens on Peers[r] and Peers[0] is the coordinator address.
	Peers []string
	// Coord is the coordinator's address: rank 0 listens on it, every
	// other rank dials it to join and learns the peer table in reply.
	Coord string
	// ExtraArgs are appended to self-spawned workers' argv (after the
	// replayed parent argv and the injected -net.* flags).
	ExtraArgs []string
	// ExtraEnv entries ("K=V") are appended to self-spawned workers'
	// environment.
	ExtraEnv []string
	// OnListen, when set, observes the local listen address as soon as
	// it is bound (tests coordinate in-process worlds with it).
	OnListen func(addr string)
	// Recover keeps every rank's listener open past bootstrap so a dead
	// rank can be respawned and the mesh rebuilt via Rejoin.
	Recover bool
	// OnRespawn, when set, replaces process respawn during Rejoin: the
	// coordinator calls it (on its own goroutine) for each dead rank,
	// and the hook is responsible for bringing a replacement rank into
	// the world via Start. In-process recovery tests use it; spawned
	// worlds re-exec the dead worker instead.
	OnRespawn func(rank int)
	// ShmOff disables the shared-memory transport for co-located ranks.
	// The zero value leaves it ON: every pair of ranks that proves
	// co-location during bootstrap maps a shared segment and moves its
	// app frames (and CkDirect put deposits) off the kernel entirely,
	// falling back to TCP per edge when the handshake declines.
	ShmOff bool
	// Seed seeds this node's private randomness (dial-retry jitter, shm
	// handshake tokens); 0 selects a fixed default. Each rank derives
	// its own stream, so chaos runs replay from the run seed.
	Seed uint64
	// TermFanout caps the fan-out of the k-ary termination tree (0 =
	// DefaultTermFanout). Probe rounds aggregate up this tree, so rank
	// 0's per-round fan-in is at most TermFanout regardless of world
	// size; worlds of at most TermFanout+1 ranks degenerate to the flat
	// star protocol exactly.
	TermFanout int
}

// DefaultTermFanout is the default width of the k-ary termination tree.
// Eight keeps the tree two levels deep up to 72 ranks and three levels
// to 584 while the root's per-round fan-in stays constant.
const DefaultTermFanout = 8

// lazyDialBurst caps the number of concurrent lazy dialRetry loops per
// node, so a collective that suddenly needs many new edges (or a
// 256-rank bootstrap wave) doesn't thundering-herd the accept queues.
const lazyDialBurst = 8

// Node is one process's membership in the distributed world: the
// connection mesh (the coordinator star plus whatever worker-to-worker
// edges first contact has opened), the bootstrap state, and the attach
// point for the per-run Runtime. A Node outlives individual runs —
// sequential runs (stencil msg-vs-ckd, benchmark sweeps) reuse the same
// mesh, with run generations keeping late frames of one run out of the
// next.
type Node struct {
	rank, world int
	oneProcess  bool // every rank of the world lives in this process (StartLocalConfig)
	// peers is the connection table: the star handshake (Start, Rejoin)
	// and first-contact installs fill it under mu, and every change is
	// published as a fresh snapshot into live. Everything that runs
	// concurrently with a possible Rejoin (senders, teardown, the Bye
	// cascade) must read the published snapshot via peerTable, never
	// this field. rings is the published table's shm links, which the
	// PEs watch (watchRings); it is emptied while a Rejoin or Close
	// retires them.
	peers    []*peerConn // by rank; nil at our own slot and unopened edges
	live     atomic.Pointer[[]*peerConn]
	rings    atomic.Pointer[[]*shmLink]
	ln       net.Listener
	children []*spawnedWorker
	cfg      Config // as resolved by Start; Rejoin re-reads Coord and Recover

	mu           sync.Mutex
	attached     atomic.Pointer[Runtime] // stored under mu; kickPEs and pollState load it without
	buffered     []bufFrame
	nextGen      int64
	completedGen int64 // highest run generation whose Run() returned
	deadErr      error // a peer is gone; further runs abort immediately
	closing      bool
	// epoch counts mesh incarnations: it bumps on every Rejoin (under
	// mu, with the rest of the mesh reset), and everything a connection
	// of an earlier epoch produces afterwards is stale — its teardown
	// already happened. peerDown ignores stale failure reports, and
	// dispatch drops stale frames outright (an old connection's reader
	// stays alive until its socket drains, long enough to deliver an
	// FLeave or FBye from the torn-down mesh AFTER the rejoin reset
	// cleared deadErr — adopting it would poison the fresh mesh and
	// abort the re-run at creation). Atomic so dispatch reads it
	// lock-free on the per-frame hot path; that check can pass just
	// before a Rejoin bumps the epoch, so every handler that records a
	// departure (peerDown, onBye, onLeave) or acts on a run (onHalt,
	// onProbe, onReport) checks again under the lock Rejoin resets its
	// state under.
	epoch atomic.Int64
	// handlerHold is a test seam: when set, onBye, onLeave, onHalt,
	// onProbe and onReport call it on entry — past dispatch's lock-free
	// epoch check, before any lock — and defer the function it returns, so
	// a test can hold a frame across a Rejoin and learn when the handler
	// finished.
	handlerHold atomic.Pointer[func() (done func())]
	// dead records peers whose connection (or first-contact dial) broke
	// in the current epoch — direct observations only: an FBye names the
	// messenger, not the dead rank, and is deliberately not recorded
	// here. The mesh is sparse, so a crashed worker is seen firsthand
	// only by the ranks holding an open edge to it; rank 0 always does
	// (the star), which is why the rejoin coordinator's own record is
	// the one that matters.
	dead map[int]bool
	// haltedThrough is the highest generation whose halt arrived before
	// this rank attached it (-1: none). Only the root's Exit can do that —
	// quiescence needs every rank's report, so it never halts a run that
	// is not attached — and a rank that hosts no element of an app may
	// still be building the run when the root exits it. attach halts any
	// generation at or below it.
	haltedThrough int64

	// jobC carries service-mode job traffic (FJob announcements on a
	// worker, FJobDone reports on the coordinator) from the connection
	// readers to the serving loop. Created lazily by JobFrames.
	jobMu   sync.Mutex
	jobC    chan JobFrame
	jobDrop int64 // frames dropped because jobC was full (consumer wedged)

	// rng is the node's private randomness — dial-retry jitter and shm
	// handshake tokens — seeded from Config.Seed and the rank so
	// simultaneous re-dialers decorrelate and chaos runs replay from
	// the run seed. rngMu guards it (the consumers are cold paths).
	rng   *rng.RNG
	rngMu sync.Mutex

	// shmSrv is the fd-passing endpoint for the shared-memory
	// handshake, created lazily at the first offered segment and living
	// for the node's lifetime (it serves every mesh epoch).
	shmMu  sync.Mutex
	shmSrv *shmServer

	// Mesh construction state. addrs is the address table the
	// coordinator sent with the last FPeers — the map a first-contact
	// dial resolves against; mu guards it across Rejoin rewrites.
	// lazySlots serializes edge establishment per peer rank: frames sent
	// before the edge exists stash in the slot and flush, in order, once
	// the connection publishes. joinC carries inbound FJoins from the
	// accept loop to rank 0's gatherJoins (bootstrap or rejoin). dialSem
	// is the lazyDialBurst semaphore.
	addrs     []string
	lazySlots []lazySlot
	joinC     chan inboundJoin
	dialSem   chan struct{}

	// termFanout is the k of the termination tree; termAggs holds this
	// node's in-flight probe aggregations, keyed by (run, probe epoch).
	// Node-level, not Runtime-level: an interior rank forwards probes
	// and merges child reports even for a generation it has not attached
	// yet (it reports itself non-idle with zero counters, exactly as the
	// flat protocol did).
	//
	// nudgeOwed/nudgeRun are the nudge this rank owes its tree parent:
	// set (under termMu) when a probe of run nudgeRun arrives, paid at
	// the next idle edge or child nudge — at most one per probe round
	// (see payNudge). The flag is atomic so the per-task idle hook reads
	// it without the lock.
	termFanout int
	termMu     sync.Mutex
	termAggs   map[termKey]*probeAgg
	nudgeRun   int64
	nudgeOwed  atomic.Bool

	// Scaling counters, all cumulative over the node's lifetime (they
	// span bootstrap, runs, and rejoins). See trace.CntNet* for meaning.
	connsDialed   atomic.Int64
	connsAccepted atomic.Int64
	dialReqs      atomic.Int64
	probeRounds   atomic.Int64
	probeReports  atomic.Int64
	eventRounds   atomic.Int64
	tickRounds    atomic.Int64
	nudges        atomic.Int64
	afterHalt     atomic.Int64
	shmCoalesced  atomic.Int64
	shmDeclined   atomic.Int64
	putsDirect    atomic.Int64
	putsFramed    atomic.Int64
}

// rand64 draws from the node's private generator.
func (n *Node) rand64() uint64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Uint64()
}

// JobFrame is one piece of service-mode job traffic: a coordinator's
// job announcement (Done=false) or a worker's completion report
// (Done=true). Seq orders jobs globally; Rank is the sender.
type JobFrame struct {
	Seq     int64
	Rank    int
	Done    bool
	Payload []byte
}

// bufFrame is an app frame that arrived for a run generation this
// process has not started yet (the sender finished the previous run
// first); it is replayed when the matching runtime attaches.
type bufFrame struct {
	rank int
	f    Frame
}

// Start brings this process into the world. Every multi-rank world is
// built the same way: rank 0 listens on the coordinator address, every
// other rank dials it (FJoin) and learns the address table (FPeers), and
// that star — with a shared-memory segment negotiated per co-located
// edge — is the whole mesh Start returns. Worker-to-worker edges open at
// first contact (lazy.go). Self-spawn and a static Peers table only
// choose the addresses; they are not separate bootstraps.
func Start(cfg Config) (*Node, error) { return start(cfg, false) }

// start is Start; oneProcess says the whole world lives in this process
// (StartLocalConfig), which the shm ring waiters want to know (ringYields).
func start(cfg Config, oneProcess bool) (*Node, error) {
	world := cfg.World
	if len(cfg.Peers) > 0 {
		if world > 1 && world != len(cfg.Peers) {
			return nil, badConfig(cfg.Rank,
				fmt.Errorf("-net.world=%d but -net.peers lists %d addresses", world, len(cfg.Peers)))
		}
		world = len(cfg.Peers)
	}
	if err := validateConfig(cfg, world); err != nil {
		return nil, err
	}
	if cfg.TermFanout == 0 {
		cfg.TermFanout = DefaultTermFanout
	}
	n := &Node{rank: cfg.Rank, world: world, completedGen: -1, haltedThrough: -1,
		cfg: cfg, oneProcess: oneProcess, dead: make(map[int]bool),
		termFanout: cfg.TermFanout, termAggs: make(map[termKey]*probeAgg)}
	n.rings.Store(new([]*shmLink))
	if n.rank < 0 {
		n.rank = 0 // self-spawn: this process becomes rank 0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x636b646972656374 // "ckdirect"
	}
	n.rng = rng.New(seed ^ uint64(n.rank+1)*0x9e3779b97f4a7c15)
	if world == 1 {
		// Degenerate single-process world: no sockets, no coordinator —
		// useful for flag plumbing tests and as the safe default.
		return n, nil
	}
	n.peers = make([]*peerConn, world)
	n.lazySlots = make([]lazySlot, world)
	n.joinC = make(chan inboundJoin, world) // a gather has at most world-1 joins outstanding
	n.dialSem = make(chan struct{}, lazyDialBurst)
	// Workers and a self-spawning coordinator bind an ephemeral port; an
	// explicitly launched rank 0 binds the coordinator address.
	listen := "127.0.0.1:0"
	if len(cfg.Peers) > 0 {
		n.cfg.Coord, listen = cfg.Peers[0], cfg.Peers[n.rank]
	} else if cfg.Rank == 0 {
		listen = cfg.Coord
	}
	if err := n.bootstrap(listen, cfg.Rank < 0); err != nil {
		// Publish whatever the handshake got as far as building, so Close
		// can reach it.
		n.mu.Lock()
		n.publishPeers()
		n.mu.Unlock()
		n.Close()
		var ne *NetError
		if errors.As(err, &ne) {
			return nil, err
		}
		return nil, &NetError{Rank: n.rank, Peer: -1, Op: "bootstrap", Err: err}
	}
	return n, nil
}

// validateConfig is the early, typed gate on a Start configuration —
// every rejected shape here used to surface as a late panic or a hung
// bootstrap. World and rank are checked against the world size actually
// in effect (the peers table wins over -net.world when both are given).
func validateConfig(cfg Config, world int) error {
	switch {
	case world <= 0:
		return badConfig(cfg.Rank, fmt.Errorf("world must be at least 1, got %d", world))
	case cfg.Rank < -1:
		return badConfig(cfg.Rank, fmt.Errorf("rank %d is negative (-1 means self-spawn)", cfg.Rank))
	case cfg.Rank >= world:
		return badConfig(cfg.Rank, fmt.Errorf("rank %d outside world [0,%d)", cfg.Rank, world))
	case cfg.TermFanout < 0:
		return badConfig(cfg.Rank, fmt.Errorf("termination fanout %d is negative", cfg.TermFanout))
	case world > 1 && cfg.Rank < 0 && len(cfg.Peers) > 0:
		return badConfig(cfg.Rank, fmt.Errorf("static launch needs -net.rank in [0,%d)", world))
	case world > 1 && cfg.Rank >= 0 && cfg.Coord == "" && len(cfg.Peers) == 0:
		return badConfig(cfg.Rank,
			errors.New("needs -net.coord (rank 0 listens on it, workers dial it) or -net.peers"))
	}
	return nil
}

// publishPeers makes the connection table visible to lock-free readers.
// startPeers calls it once the star is handshaken — until then,
// concurrent senders keep using the previous table (whose connections
// are down during a rejoin, so their sends drop — the run is aborting
// anyway) — and every first-contact install republishes. The published
// table is always a snapshot copy: n.peers keeps changing (under mu) as
// edges open, and in-place writes to a shared slice would race the
// lock-free readers.
func (n *Node) publishPeers() {
	t := append([]*peerConn(nil), n.peers...)
	var links []*shmLink
	for _, p := range t {
		if p == nil {
			continue
		}
		if l := p.shm.Load(); l != nil {
			links = append(links, l)
		}
	}
	n.rings.Store(&links)
	n.live.Store(&t)
}

// peerTable returns the last published connection table (nil before
// bootstrap publishes).
func (n *Node) peerTable() []*peerConn {
	if t := n.live.Load(); t != nil {
		return *t
	}
	return nil
}

// Rank returns this process's rank.
func (n *Node) Rank() int { return n.rank }

// World returns the process count.
func (n *Node) World() int { return n.world }

// IsWorker reports whether this process is a non-coordinator rank —
// drivers use it to keep result printing and artifact writing on rank 0.
func (n *Node) IsWorker() bool { return n.rank != 0 }

// Addr returns this node's listen address ("" for a single-process
// world or a closed node). The listener lives as long as the node: it
// takes first-contact dials, and a respawned rank dials the
// coordinator's to rejoin.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// listen binds the local listener, publishes its address, and hands the
// listener to the accept loop, which owns it for the node's lifetime:
// every inbound connection — a joining rank at bootstrap or rejoin, a
// first-contact dial during a run — is classified by handleInbound.
func (n *Node) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.ln = ln
	if n.cfg.OnListen != nil {
		n.cfg.OnListen(ln.Addr().String())
	}
	go n.acceptLoop(ln)
	return nil
}

// bootstrap builds the coordinator star: rank 0 gathers one FJoin per
// worker (launching the workers first in self-spawn mode), every other
// rank joins, and startPeers finishes the edges. Rejoin runs the same
// three functions over the same listener.
func (n *Node) bootstrap(listen string, spawn bool) error {
	err := n.listen(listen)
	if err != nil {
		return err
	}
	if n.rank != 0 {
		err = n.joinStar(dialAttempts)
	} else {
		if spawn {
			n.children, err = spawnWorkers(n.cfg, n.world, n.ln.Addr().String())
		}
		if err == nil {
			// A world that is still forming has no stale joins to skip: a
			// malformed or duplicate FJoin is a launch mistake, so strict.
			err = n.gatherJoins(true)
		}
	}
	if err != nil {
		return err
	}
	return n.startPeers()
}

// joinStar is a worker's half of the star handshake: dial the
// coordinator within the attempt budget, send FJoin (rank + our listen
// address), and read the FPeers address table under the join window.
// The connection becomes the 0<->rank star edge.
func (n *Node) joinStar(attempts int) error {
	conn, err := n.dialRetry(n.cfg.Coord, attempts)
	if err != nil {
		return fmt.Errorf("dial coordinator at %s: %w", n.cfg.Coord, err)
	}
	n.connsDialed.Add(1)
	p := newPeerConn(n, 0, conn)
	conn.SetDeadline(time.Now().Add(joinWindow))
	err = writeFrame(conn, &Frame{Type: FJoin, A: int64(n.rank), Payload: []byte(n.ln.Addr().String())})
	var f Frame
	if err == nil {
		f, err = readFrame(p.br)
	}
	conn.SetDeadline(time.Time{})
	if err != nil || f.Type != FPeers {
		conn.Close()
		return fmt.Errorf("expected PEERS from coordinator: %v", err)
	}
	addrs := strings.Split(string(f.Payload), "\n")
	if len(addrs) != n.world {
		conn.Close()
		return fmt.Errorf("coordinator sent %d peer addresses, world is %d", len(addrs), n.world)
	}
	n.mu.Lock()
	n.peers[0] = p
	n.addrs = addrs
	n.mu.Unlock()
	return nil
}

// gatherJoins is rank 0's half: within the join window, take world-1
// FJoins off joinC (the accept loop parks them there), keep each
// connection as the 0<->r star edge, and answer all of them with the
// completed address table. A join naming a bad or already-joined rank
// is closed; strict makes it fail the gather as well (bootstrap),
// otherwise it is skipped (rejoin, where a stale parked join must not
// kill a fresh attempt).
func (n *Node) gatherJoins(strict bool) error {
	epoch := n.epoch.Load()
	addrs := make([]string, n.world)
	addrs[0] = n.ln.Addr().String()
	timeout := time.NewTimer(joinWindow)
	defer timeout.Stop()
	for joined := 0; joined < n.world-1; {
		var ij inboundJoin
		select {
		case ij = <-n.joinC:
		case <-timeout.C:
			return fmt.Errorf("waiting for ranks (%d/%d joined): timeout", joined, n.world-1)
		}
		n.mu.Lock()
		bad := ij.rank <= 0 || ij.rank >= n.world || n.peers[ij.rank] != nil
		if !bad {
			ij.p.rank = ij.rank
			ij.p.epoch = epoch
			n.peers[ij.rank] = ij.p
		}
		n.mu.Unlock()
		if bad {
			ij.p.conn.Close()
			if strict {
				return fmt.Errorf("bad JOIN rank %d", ij.rank)
			}
			continue
		}
		addrs[ij.rank] = ij.addr
		n.connsAccepted.Add(1)
		joined++
	}
	n.mu.Lock()
	n.addrs = addrs
	star := append([]*peerConn(nil), n.peers...)
	n.mu.Unlock()
	table := []byte(strings.Join(addrs, "\n"))
	for r := 1; r < n.world; r++ {
		if err := writeFrame(star[r].conn, &Frame{Type: FPeers, Payload: table}); err != nil {
			return err
		}
	}
	return nil
}

// startPeers finishes the star: it runs the shm handshakes over the
// fresh sockets, publishes the connection table, and launches the
// connection goroutines. The handshake must precede start(): it speaks
// synchronously on the raw sockets, which only works while no reader
// goroutine is competing for them.
func (n *Node) startPeers() error {
	// Snapshot under the lock: the accept loop may install first-contact
	// edges (under mu) while this tail runs — a peer that finished its
	// own handshake first is free to start talking — and those arrive
	// already handshaken and started; they are not ours to touch.
	n.mu.Lock()
	peers := append([]*peerConn(nil), n.peers...)
	n.mu.Unlock()
	err := n.setupShm(peers)
	n.mu.Lock()
	n.publishPeers()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	for _, p := range peers {
		if p != nil && !p.started {
			p.start()
		}
	}
	return nil
}

// sendTo queues a frame for a peer rank, lazily establishing the edge
// on first contact. A false return means the peer is down; the failure
// path is already aborting the run, so callers simply drop the frame.
// The wire bytes live in a pooled buffer owned by the peer writer (or,
// before the edge exists, the lazy stash) from the moment the send is
// accepted.
func (n *Node) sendTo(rank int, f *Frame) bool { return n.sendIn(-1, rank, f) }

// sendIn is sendTo for a frame that speaks for mesh epoch e — one a
// handler forwards on behalf of the connection it read from. Once a
// Rejoin has moved this node past e the frame is dropped rather than
// carried by the rebuilt mesh. e < 0 sends on whichever mesh is current.
func (n *Node) sendIn(e int64, rank int, f *Frame) bool {
	p, stash := n.routePeer(rank)
	if p == nil && !stash || p != nil && e >= 0 && p.epoch != e {
		return false
	}
	b, err := encodeFramePooled(f)
	if err != nil {
		bufpool.Put(b)
		panic(fmt.Sprintf("netrt: %v", err))
	}
	return n.routeSend(rank, p, b, e)
}

// sendOpen queues a frame for a peer rank only if the edge is already
// open — it never triggers a lazy dial. Teardown traffic (FLeave, the
// FBye cascade, keepalives) must use this path: opening sockets to
// ranks we never spoke to, just to say goodbye, would rebuild the full
// mesh that first-contact dialing exists to avoid.
func (n *Node) sendOpen(rank int, f *Frame) bool {
	t := n.peerTable()
	if t == nil || rank < 0 || rank >= len(t) || t[rank] == nil {
		return false
	}
	b, err := encodeFramePooled(f)
	if err != nil {
		bufpool.Put(b)
		panic(fmt.Sprintf("netrt: %v", err))
	}
	if !t[rank].send(b) {
		bufpool.Put(b)
		return false
	}
	return true
}

// sendEnv ships one Charm envelope as a frame of the given type: header
// and envelope encode in a single pass into one pooled buffer, so an
// eager send costs no intermediate slice.
func (n *Node) sendEnv(rank int, typ byte, run int64, env *Env) bool {
	p, stash := n.routePeer(rank)
	if p == nil && !stash {
		return false
	}
	size := EnvWireSize(env)
	b := bufpool.Get(frameWireLen(size))[:0]
	b = appendFrameHeader(b, typ, run, 0, 0, 0, 0, size)
	b = AppendEnv(b, env)
	return n.routeSend(rank, p, b, -1)
}

// routePeer resolves a destination rank: an open connection, or
// (nil, true) when the edge does not exist yet and first contact will
// create it — the caller encodes the frame and hands it to routeSend.
func (n *Node) routePeer(rank int) (*peerConn, bool) {
	t := n.peerTable()
	if t == nil || rank < 0 || rank >= len(t) {
		return nil, false
	}
	if p := t[rank]; p != nil {
		return p, false
	}
	return nil, rank != n.rank
}

// routeSend delivers an encoded frame: via the open connection, or into
// the peer's lazy-dial stash (of mesh epoch e, when e >= 0). Ownership
// of b transfers on true; on false the pooled buffer is returned here.
func (n *Node) routeSend(rank int, p *peerConn, b []byte, e int64) bool {
	if p != nil {
		if !p.send(b) {
			bufpool.Put(b)
			return false
		}
		return true
	}
	if !n.lazyEnqueue(rank, b, e) {
		bufpool.Put(b)
		return false
	}
	return true
}

// dispatch routes one received frame. It runs on the owning
// connection's reader goroutine. The return value is an ownership
// verdict on f.Payload: true means the payload buffer was consumed
// (handed onward to a consumer that will return it to the pool), false
// means the reader still owns it and reclaims it when dispatch returns.
// Control frames always finish with the payload synchronously.
func (n *Node) dispatch(p *peerConn, f Frame) bool {
	if p.epoch != n.epoch.Load() {
		// A frame from a pre-Rejoin mesh incarnation, raced out by the
		// epoch bump: that mesh's runs are gone and its failures were
		// already handled, so nothing it says is actionable.
		return false
	}
	switch f.Type {
	case FPing:
		return false
	case FProbe:
		n.onProbe(p, f)
	case FReport:
		n.onReport(p, f)
	case FHalt:
		n.onHalt(p, f)
	case FDialReq:
		n.onDialReq(f)
	case FBye:
		n.onBye(p, f)
	case FLeave:
		n.onLeave(p, f)
	case FJob, FJobDone:
		n.onJob(p, f)
	case FShmReg:
		p.noteShmReg(f)
	case FEager, FRTS, FCTS, FData, FPut, FCast, FMove, FLoc:
		return n.dispatchApp(p, f)
	default:
		// Bootstrap frames after bootstrap, or future types from a
		// mismatched build: a protocol violation.
		p.fail("read", fmt.Errorf("unexpected frame type %d", f.Type))
	}
	return false
}

// current returns the attached runtime when its generation matches.
func (n *Node) current(gen int64) *Runtime {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rt := n.attached.Load(); rt != nil && rt.gen == gen {
		return rt
	}
	return nil
}

// runFor is current for a frame read from p: nil as well when a Rejoin
// has moved past p's epoch. The check and the lookup share one hold of
// mu, the lock the epoch bumps under, so a runtime it returns was
// attached in p's mesh — a stale frame never reaches a rerun.
func (n *Node) runFor(p *peerConn, gen int64) *Runtime {
	n.mu.Lock()
	defer n.mu.Unlock()
	rt := n.attached.Load()
	if p.epoch != n.epoch.Load() || rt == nil || rt.gen != gen {
		return nil
	}
	return rt
}

// haltFor is runFor for a halt: a halt for a generation this rank has
// not attached yet is recorded for attach instead (haltedThrough).
func (n *Node) haltFor(p *peerConn, gen int64) *Runtime {
	n.mu.Lock()
	defer n.mu.Unlock()
	rt := n.attached.Load()
	switch {
	case p.epoch != n.epoch.Load():
		return nil
	case rt != nil && rt.gen == gen:
		return rt
	case gen > n.completedGen && gen > n.haltedThrough:
		n.haltedThrough = gen
	}
	return nil
}

// dispatchApp delivers an app frame to the matching run, or buffers it
// when this process has not started that run yet. Its return value is
// the same ownership verdict as dispatch's: true only when the pooled
// payload was handed to a consumer that will Put it back.
func (n *Node) dispatchApp(p *peerConn, f Frame) bool {
	n.mu.Lock()
	rt := n.attached.Load()
	if rt == nil || f.Run > rt.gen {
		// Buffered frames outlive dispatch, but the reader's payload
		// buffer goes back to the pool the moment dispatch returns —
		// so a buffered frame must own a plain copy.
		f.Payload = append([]byte(nil), f.Payload...)
		n.buffered = append(n.buffered, bufFrame{rank: p.rank, f: f})
		n.mu.Unlock()
		return false
	}
	if f.Run < rt.gen {
		// A frame from a globally-terminated run: termination proved all
		// its frames processed, so this cannot happen absent a protocol
		// bug; dropping it is the safe response.
		n.mu.Unlock()
		return false
	}
	n.mu.Unlock()
	return rt.handleApp(p.rank, f, true)
}

// streamPut is the zero-copy inbound put path: the reader has decoded
// an FPut's meta and its payload is still on the stream br (the TCP
// socket's reader or a shared-memory ring's — the path is transport-
// blind). When the matching run is attached and has a streaming sink
// installed, the payload is read directly into the preregistered
// destination buffer — no intermediate slice exists anywhere. It
// returns handled=false when no such sink applies (runtime not attached
// yet, generation mismatch, no CkDirect manager), in which case the
// reader falls back to the buffered-frame path; a non-nil error is a
// stream failure and kills the connection (the sink consumed an unknown
// number of payload bytes, so no resynchronization is possible).
func (n *Node) streamPut(p *peerConn, br *bufio.Reader, m frameMeta) (bool, error) {
	n.mu.Lock()
	rt := n.attached.Load()
	var sink func(id int64, size int, r io.Reader) error
	// The epoch check matters here more than anywhere: generations reset
	// to zero on Rejoin, so without it a stale connection's late FPut
	// could stream into the NEW gen-0 run's registered buffer.
	if rt != nil && rt.gen == m.run && p.epoch == n.epoch.Load() && !rt.aborted.Load() {
		sink = rt.putStream
	}
	n.mu.Unlock()
	if sink == nil {
		return false, nil
	}
	if err := sink(m.a, m.payloadLen, br); err != nil {
		return true, err
	}
	rt.recv.Add(1)
	return true, nil
}

// peerDown handles a lost peer: with a run in flight the runtime aborts
// with a typed NetError and the abort cascades to every other rank (a
// FBye broadcast), so no process hangs inside a quiescence detection
// that can no longer complete. Between runs the loss is recorded and
// the next run aborts at creation.
func (n *Node) peerDown(p *peerConn, op string, err error) {
	ne := &NetError{Rank: n.rank, Peer: p.rank, Op: op, Err: err}
	n.mu.Lock()
	if p.epoch != n.epoch.Load() {
		// A connection from a pre-Rejoin mesh incarnation: its loss was
		// already handled (or deliberately caused) by the rejoin.
		n.mu.Unlock()
		return
	}
	closing := n.closing
	rt := n.attached.Load()
	if n.deadErr == nil {
		n.deadErr = ne
	}
	if !closing && p.rank >= 0 {
		n.dead[p.rank] = true
	}
	n.mu.Unlock()
	if rt != nil {
		rt.abort(ne)
		n.broadcastBye(p.rank, ne)
	} else if closing {
		// Peers tearing down after the final run: not an error.
		n.mu.Lock()
		if n.deadErr == ne {
			n.deadErr = nil
		}
		n.mu.Unlock()
	}
}

// onBye handles a peer's abort announcement: adopt the failure and
// abort the local run. The mesh is sparse — not every rank has an edge
// to the origin — so rank 0, whose star to every worker is always open,
// re-broadcasts the first FBye it adopts. The set-once deadErr gate
// keeps the relay from looping (a relayed FBye arriving back at rank 0
// finds deadErr already set).
func (n *Node) onBye(p *peerConn, f Frame) {
	if hold := n.handlerHold.Load(); hold != nil {
		defer (*hold)()()
	}
	ne := &NetError{Rank: n.rank, Peer: int(f.A), Op: "peer-abort", Err: errors.New(string(f.Payload))}
	n.mu.Lock()
	if p.epoch != n.epoch.Load() {
		// A Rejoin landed after dispatch's check: the abort belongs to
		// the torn-down mesh.
		n.mu.Unlock()
		return
	}
	first := n.deadErr == nil
	if first {
		n.deadErr = ne
	}
	rt := n.attached.Load()
	n.mu.Unlock()
	if rt != nil {
		rt.abort(ne)
	}
	if first && n.rank == 0 {
		n.tellOpen(&Frame{Type: FBye, A: f.A, Payload: f.Payload}, p.rank, int(f.A))
	}
}

// broadcastBye tells every rank this node can still reach that the run
// is dead; rank 0 hears it over the always-open star and relays it to
// the ranks the origin had no edge to (onBye).
func (n *Node) broadcastBye(exceptRank int, ne *NetError) {
	n.tellOpen(&Frame{Type: FBye, A: int64(n.rank), Payload: []byte(ne.Error())}, exceptRank)
}

// tellOpen sends f down every open, healthy edge but the excepted
// ranks'. Deliberately sendOpen: news of a departure must not open
// sockets, and it doesn't need to — rank 0's star reaches everyone.
func (n *Node) tellOpen(f *Frame, except ...int) {
	for r, p := range n.peerTable() {
		if p != nil && !p.failed.Load() && !slices.Contains(except, r) {
			n.sendOpen(r, f)
		}
	}
}

// attach installs a freshly built runtime and replays any frames that
// arrived for its generation before this process started the run. A
// departure recorded since NewRuntime looked (a relayed leave, a broken
// socket) found no run to abort; it aborts this one here, under the same
// lock that recorded it, instead of leaving it to hang in termination.
func (n *Node) attach(rt *Runtime) {
	n.mu.Lock()
	n.attached.Store(rt)
	dead := n.deadErr
	exited := rt.gen <= n.haltedThrough
	var flush []bufFrame
	keep := n.buffered[:0]
	for _, bf := range n.buffered {
		if bf.f.Run == rt.gen {
			flush = append(flush, bf)
		} else if bf.f.Run > rt.gen {
			keep = append(keep, bf)
		}
	}
	n.buffered = keep
	n.mu.Unlock()
	if dead != nil && !rt.aborted.Load() {
		rt.abort(dead)
	}
	if exited {
		// The root exited this run before it attached here (see
		// haltedThrough): it has nothing left to do on this rank, and a
		// buffered frame replayed below counts as after the halt.
		rt.halt(true)
	}
	for _, bf := range flush {
		rt.handleApp(bf.rank, bf.f, false)
	}
}

// kickPEs wakes any parked PE of the attached run. A shm ring reader
// calls it when a direct put moved putSeq, and so does a polling PE whose
// reader sleeps: the put names no PE, and a kick costs a PE that is not
// parked one atomic load.
func (n *Node) kickPEs() {
	if rt := n.attached.Load(); rt != nil {
		for pe := 0; pe < rt.hi-rt.lo; pe++ {
			rt.rt.Kick(pe)
		}
	}
}

// pollState reads the PE states of the attached run (ringWatch).
func (n *Node) pollState() (realrt.PollState, bool) {
	if rt := n.attached.Load(); rt != nil {
		return rt.rt.PollState(), true
	}
	return realrt.PollState{}, false
}

// watchRings is a polling PE's idle pass over this rank's inbound rings:
// a reader that sleeps is poked once its ring holds bytes past the head
// it slept at — one load of the ring's tail. A PE that shares its rank
// with others (kick) also kicks them for direct puts (handlePuts), which
// a sleeping reader no longer does; a PE alone on its rank finds its
// puts itself and skips that load.
//
// It reports whether the rank holds a ring, which is whether the PE
// should spin on (realrt.SetPollerHooks). Only a direct shm put lands
// without waking a PE, so a rank with no ring — read on every pass,
// because lazy edges add rings and a Rejoin retires them — gets every
// arrival from a reader goroutine that enqueues or kicks, and its PE
// parks at once rather than keep Go's run queue from the netpoller.
func (n *Node) watchRings(kick bool) bool {
	links := *n.rings.Load()
	for _, l := range links {
		if at := l.watch.sleepAt.Load(); at != 0 && l.in.tail.load() != at-1 {
			l.watch.poke()
		}
		if kick {
			n.handlePuts(l)
		}
	}
	return len(links) > 0
}

// wakeRingReaders hands every ring back to its reader: no PE of the rank
// polls any more, and one is parked or exited. It runs on the PE that
// made it so, before that PE's last full poll (a park's re-check), so a
// put it marks handled here is found by that poll or kicked for here.
func (n *Node) wakeRingReaders() {
	for _, l := range *n.rings.Load() {
		n.handlePuts(l)
		l.watch.poke()
	}
}

// handlePuts marks the direct puts that moved l's putSeq as handled and
// kicks the rank's parked PEs for them.
func (n *Node) handlePuts(l *shmLink) {
	h := &l.in.putsHandled
	if s := l.in.putSeq.load(); s != h.Load() {
		h.Store(s)
		n.kickPEs()
	}
}

// detach clears the attach point once a run's Run() returns.
func (n *Node) detach(rt *Runtime) {
	n.mu.Lock()
	if n.attached.Load() == rt {
		n.attached.Store(nil)
	}
	if rt.gen > n.completedGen {
		n.completedGen = rt.gen
	}
	n.mu.Unlock()
}

// onLeave handles a graceful goodbye: rank f.B finished every run
// generation through f.A and is exiting. Heard from the leaver itself,
// the EOF about to follow on this connection is planned teardown, and
// quieting the connection BEFORE the reader hits that EOF (the goodbye
// and the EOF arrive on the same goroutine, in order) is what keeps a
// fast-exiting rank from looking like a lost peer to one still draining
// its scheduler. A run the leaver has NOT finished can no longer
// complete and aborts; either way the departure is recorded so any later
// run aborts at creation instead of hanging in termination detection.
//
// The mesh is sparse, so most ranks have no edge to the leaver and hear
// neither its FLeave nor its EOF. Rank 0 always does (the star), and
// relays the departure down its other open star edges exactly as onBye
// relays an FBye; a relayed leave names a third rank, so the connection
// it arrived on stays loud. Only rank 0 relays and only what it heard
// firsthand, so the relay cannot loop.
func (n *Node) onLeave(p *peerConn, f Frame) {
	if hold := n.handlerHold.Load(); hold != nil {
		defer (*hold)()()
	}
	leaver := int(f.B)
	firsthand := leaver == p.rank
	if !firsthand && p.rank != 0 {
		return // only the coordinator relays
	}
	if firsthand {
		p.quiet.Store(true)
	}
	ne := &NetError{Rank: n.rank, Peer: leaver, Op: "leave",
		Err: fmt.Errorf("peer exited after run generation %d", f.A)}
	n.mu.Lock()
	if p.epoch != n.epoch.Load() {
		// A Rejoin landed after dispatch's check: the leave is the old
		// mesh's teardown, and the fresh mesh must not inherit it.
		n.mu.Unlock()
		return
	}
	if n.deadErr == nil {
		n.deadErr = ne
	}
	rt := n.attached.Load()
	n.mu.Unlock()
	if rt != nil && rt.gen > f.A {
		rt.abort(ne)
	}
	if firsthand && n.rank == 0 {
		n.tellOpen(&Frame{Type: FLeave, A: f.A, B: f.B}, leaver)
	}
}

// JobFrames returns the channel carrying service-mode job traffic for
// this node: FJob announcements when this rank is a worker, FJobDone
// reports when it is the coordinator. The channel is buffered; the
// serving loop must keep draining it.
func (n *Node) JobFrames() <-chan JobFrame {
	n.jobMu.Lock()
	defer n.jobMu.Unlock()
	if n.jobC == nil {
		n.jobC = make(chan JobFrame, 256)
	}
	return n.jobC
}

// onJob routes one piece of job traffic onto the job channel. It runs
// on a connection reader goroutine, so the push is non-blocking: with a
// wedged consumer the frame is counted dropped rather than stalling the
// reader (the serving protocol tolerates a lost report — the
// coordinator's wait is bounded — and a lost announcement is re-sent
// after recovery).
func (n *Node) onJob(p *peerConn, f Frame) {
	jf := JobFrame{Seq: f.A, Rank: p.rank, Done: f.Type == FJobDone}
	// The reader reclaims its pooled payload buffer when dispatch
	// returns; a job frame outlives that, so it owns a plain copy.
	jf.Payload = append([]byte(nil), f.Payload...)
	n.jobMu.Lock()
	if n.jobC == nil {
		n.jobC = make(chan JobFrame, 256)
	}
	c := n.jobC
	n.jobMu.Unlock()
	select {
	case c <- jf:
	default:
		atomic.AddInt64(&n.jobDrop, 1)
	}
}

// SendJob announces job seq to one rank (coordinator side).
func (n *Node) SendJob(rank int, seq int64, spec []byte) bool {
	return n.sendTo(rank, &Frame{Type: FJob, A: seq, Payload: spec})
}

// BroadcastJob announces job seq to every other rank. It reports how
// many ranks accepted the frame; a down peer simply misses it (the
// recovery path re-announces after the mesh rebuilds).
func (n *Node) BroadcastJob(seq int64, spec []byte) int {
	sent := 0
	for r := 0; r < n.world; r++ {
		if r == n.rank {
			continue
		}
		if n.SendJob(r, seq, spec) {
			sent++
		}
	}
	return sent
}

// SendJobDone reports this worker's outcome for job seq to the
// coordinator. A node whose closing latch is set stays silent: Die sets
// the latch before it aborts the run, so by the time a killed
// incarnation's follower unwinds to its report, the check here is
// definitive — and the report MUST not escape, because the coordinator
// keys reports by job sequence alone and a dead incarnation's failure
// would poison a job its respawned successor is about to rerun.
func (n *Node) SendJobDone(seq int64, report []byte) bool {
	n.mu.Lock()
	closing := n.closing
	n.mu.Unlock()
	if closing {
		return false
	}
	return n.sendTo(0, &Frame{Type: FJobDone, A: seq, Payload: report})
}

// Sever forcibly breaks the connection to a peer rank with no goodbye —
// a failure-injection hook: both sides observe the broken socket exactly
// as they would a crashed process, so tests can drive the peer-loss path
// (abort with a typed NetError, FBye cascade) without killing a process.
func (n *Node) Sever(rank int) {
	peers := n.peerTable()
	if rank == n.rank || peers == nil || peers[rank] == nil {
		return
	}
	peers[rank].conn.Close()
}

// Close tears the node down: connections close gracefully and, for a
// self-spawned world, the worker processes are reaped. It returns the
// first worker failure (a worker that exited non-zero — e.g. its local
// validation failed — must not vanish silently).
func (n *Node) Close() error {
	n.mu.Lock()
	n.closing = true
	completed := n.completedGen
	n.mu.Unlock()
	if n.ln != nil {
		n.ln.Close()
		n.ln = nil
	}
	for r, p := range n.peerTable() {
		if p == nil {
			continue
		}
		// Say goodbye before closing: the FLeave flushes ahead of the
		// FIN, so a peer still draining its final run can tell planned
		// teardown from a lost peer. sendOpen — goodbyes go to edges
		// that exist, never open new ones. The goodbye rides TCP and the
		// frames before it (a serve shutdown announce) may ride the ring,
		// so the ring is flushed first: the peer reads both before EOF.
		if l := p.shm.Load(); l != nil {
			l.flush()
		}
		n.sendOpen(r, &Frame{Type: FLeave, A: completed, B: int64(n.rank)})
		p.close()
	}
	// Frames stashed for edges that never opened die with the mesh; give
	// their pooled buffers back.
	n.drainLazyStashes()
	// Wait (bounded) for the writers to put those goodbyes on the wire.
	// Returning with an FLeave still queued lets the process exit with
	// it unsent, and the bare FIN the peer then reads is exactly the
	// signature of a rank death: a peer a halt-round behind in its final
	// run would abort — and, under recovery, try to rejoin a world that
	// is already gone. close() guarantees each connection's down latch
	// eventually closes (the writer shuts down after draining everything
	// ahead of the close marker), so this wait is normally instant.
	deadline := time.After(closeFlushGrace)
	for _, p := range n.peerTable() {
		if p == nil {
			continue
		}
		select {
		case <-p.down:
			continue
		case <-deadline:
		}
		break // grace exhausted: give up on the stragglers
	}
	// Every connection is down, so the ring readers are exiting and the
	// senders can no longer enter a link: unmap the shared segments and
	// retire the fd server. A segment whose peer still maps it stays
	// alive on the peer's side — munmap only drops this process's view.
	n.rings.Store(new([]*shmLink))
	teardownShmLinks(n.peerTable())
	n.shmMu.Lock()
	n.shmSrv.close()
	n.shmMu.Unlock()
	var err error
	for _, w := range n.children {
		if werr := w.wait(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}
