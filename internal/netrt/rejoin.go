package netrt

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bufpool"
)

// joinWindow bounds the star handshake, at bootstrap and at Rejoin
// alike: how long the coordinator waits for every rank (at rejoin,
// survivors plus respawned replacements) to dial in, and how long a
// worker waits for the coordinator's FPeers.
const joinWindow = 60 * time.Second

// reapGrace is how long Rejoin waits for a reportedly dead child
// process to be collectable. A kill -9'd child exits immediately; a
// child that outlives the grace is alive after all (a spurious dead
// observation — e.g. a goodbye lost in a hard teardown) and must not be
// respawned on top of.
const reapGrace = 10 * time.Second

// probeGrace is the exit probe applied to children NOT reported dead by
// a broken socket. A rank's death can reach the coordinator only as a
// relayed FBye cascade — the abort fires before the coordinator's own
// connection to the victim breaks — leaving the dead snapshot empty. An
// already-exited child trips its done latch instantly regardless of the
// grace (the waiter goroutine runs from spawn), so this only needs to
// cover a death racing the probe itself; a live child costs the full
// grace, which bounds added rejoin latency at world × probeGrace.
const probeGrace = 200 * time.Millisecond

// Rejoin rebuilds the mesh after a rank death, under Config.Recover.
// Every surviving rank calls it (the recovery driver does) between the
// aborted run and the retry:
//
//   - The old mesh is invalidated wholesale: the epoch bump makes every
//     old connection's failure report stale, generations reset to zero
//     (the respawned process starts at zero, and generations must match
//     across ranks — resetting everyone keeps them in lockstep), and
//     buffered frames and the dead-peer latch are cleared.
//   - The coordinator reaps and respawns dead child ranks (self-spawn
//     mode) or hands them to Config.OnRespawn (in-process tests).
//   - Then the star is rebuilt by the functions that built it in Start:
//     workers joinStar (with the stretched dial budget — the coordinator
//     may be reaping for a while), rank 0 gatherJoins off the same
//     accept loop, both startPeers. Worker-to-worker edges reopen at
//     first contact, against the fresh address table.
//
// A respawned worker needs no special handling here: it re-runs its own
// Start, and its FJoin lands in the same gather.
func (n *Node) Rejoin() error {
	if !n.cfg.Recover {
		return errors.New("netrt: Rejoin needs Config.Recover")
	}
	if n.world <= 1 || n.ln == nil {
		return errors.New("netrt: nothing to rejoin")
	}

	if n.rank == 0 && n.cfg.OnRespawn != nil {
		n.settleStar()
	}

	// Snapshot who died before the reset clears the record. Only direct
	// observations land in n.dead, so this names crashed rank(s), not
	// the messengers of the abort cascade — but only those this rank
	// held an edge to. The snapshot matters on rank 0, whose star
	// reaches every worker; even there it can be empty when the abort
	// cascade outran the broken socket (see respawnDead).
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		return errors.New("netrt: node is closing")
	}
	dead := make(map[int]bool, len(n.dead))
	for r := range n.dead {
		dead[r] = true
	}
	completed := n.completedGen

	// Invalidate the old mesh. The epoch bump must happen under the
	// same lock acquisition as the state reset: from here on, any
	// failure report from an old connection is stale and ignored.
	n.epoch.Add(1)
	oldPeers := n.peers
	n.peers = make([]*peerConn, n.world)
	n.buffered = nil
	n.deadErr = nil
	n.dead = make(map[int]bool)
	n.nextGen = 0
	n.completedGen = -1
	n.mu.Unlock()
	// Termination-tree windows and stashed first-contact frames belong
	// to the dead epoch: the aborted run's frames are gone either way.
	n.termMu.Lock()
	n.termAggs = make(map[termKey]*probeAgg)
	n.nudgeOwed.Store(false)
	n.termMu.Unlock()
	n.drainLazyStashes()

	// Tear the old connections down gracefully: the FLeave flushes
	// ahead of the FIN, so a peer that has not entered its own Rejoin
	// yet reads a planned goodbye, not a second rank death.
	for _, p := range oldPeers {
		if p == nil {
			continue
		}
		b, err := encodeFramePooled(&Frame{Type: FLeave, A: completed, B: int64(n.rank)})
		if err == nil && !p.send(b) {
			bufpool.Put(b)
		}
		p.close()
	}
	// Unmap the old epoch's shm segments off the critical path: the
	// teardown waits for each ring reader to drain out, which needs the
	// down latches just closed above to propagate. The new mesh maps
	// fresh segments; nothing here is reused.
	go teardownShmLinks(oldPeers)

	var err error
	if n.rank == 0 {
		if err = n.respawnDead(dead); err == nil {
			// Parked joins may predate this Rejoin or come from an
			// attempt long abandoned, so a bad one is skipped, not fatal.
			err = n.gatherJoins(false)
		}
	} else {
		err = n.joinStar(rejoinDialAttempts)
	}
	if err != nil {
		return fmt.Errorf("netrt: rejoin: %w", err)
	}
	return n.startPeers()
}

// settleStar is the coordinator's wait, before a Rejoin snapshots n.dead
// for the respawn hook, for every worker edge of the current mesh to say
// which way it ended: a survivor entering its own Rejoin sends an FLeave
// first (onLeave quiets the edge), a dead rank's socket just breaks
// (peerDown records it). Without the wait a death that reached rank 0
// only as a relayed FBye can still be unread on the victim's socket at
// the snapshot, and the hook — which, unlike the self-spawn exit probe,
// acts on the snapshot alone — never respawns it. Bounded by reapGrace:
// an edge still open then is left to the gather to time out, as before.
func (n *Node) settleStar() {
	deadline := time.Now().Add(reapGrace)
	for r, p := range n.peerTable() {
		for p != nil && !p.quiet.Load() && time.Now().Before(deadline) {
			n.mu.Lock()
			dead := n.dead[r]
			n.mu.Unlock()
			if dead {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// respawnDead is the coordinator's first rejoin step: bring replacement
// ranks into being, so the gather that follows hears from everyone.
func (n *Node) respawnDead(dead map[int]bool) error {
	if len(n.children) > 0 {
		// Self-spawn mode: probe every child for exit — not just the
		// socket-observed dead — and launch replacements with the
		// identical command line. The dead snapshot can miss the victim
		// entirely when its death reached us only as a relayed FBye
		// cascade, so the exit probe is the authority here; the socket
		// observation merely buys the victim a longer reap grace. A
		// replacement re-runs its whole program; the shared checkpoint
		// directory tells it where to resume.
		for i, w := range n.children {
			grace := probeGrace
			if dead[w.rank] {
				grace = reapGrace
			}
			if !w.exited(grace) {
				// Still alive: either healthy, or the death report was
				// spurious (its connection broke, the process did not).
				// It will re-dial on its own.
				continue
			}
			nw, err := spawnOne(n.cfg, w.rank, n.world, n.ln.Addr().String())
			if err != nil {
				return fmt.Errorf("respawn rank %d: %w", w.rank, err)
			}
			n.children[i] = nw
		}
	} else if n.cfg.OnRespawn != nil {
		for r := range dead {
			// Off this goroutine: the hook typically calls Start, which
			// blocks until the gather answers it.
			go n.cfg.OnRespawn(r)
		}
	}
	// No spawn machinery and no hook: an externally launched world. The
	// join window still gives an operator-restarted rank time to dial
	// back in.
	return nil
}

// Die abruptly destroys this node — the in-process analogue of kill -9
// for recovery tests: every connection and the listener close with no
// goodbye (peers observe an unplanned EOF, exactly as for a crashed
// process), and any attached run aborts locally without a Bye cascade
// (a killed process cannot announce its own death).
func (n *Node) Die() {
	ne := &NetError{Rank: n.rank, Peer: n.rank, Op: "killed",
		Err: errors.New("rank killed by fault injection")}
	n.mu.Lock()
	n.closing = true
	if n.deadErr == nil {
		n.deadErr = ne
	}
	rt := n.attached
	n.mu.Unlock()
	if rt != nil {
		rt.abort(ne)
	}
	if n.ln != nil {
		n.ln.Close()
	}
	// The fd-passing server dies with the process; the shm mappings are
	// deliberately NOT unmapped — an in-process "killed" rank may still
	// have pollers touching arena memory, and a mapping (unlike an fd)
	// is reclaimed wholesale when the real process exits.
	n.shmMu.Lock()
	srv := n.shmSrv
	n.shmSrv = nil
	n.shmMu.Unlock()
	srv.close()
	for _, p := range n.peerTable() {
		if p != nil {
			p.shutdown()
		}
	}
	n.drainLazyStashes()
}

// DeadRanks lists the peers whose connections broke in the current mesh
// epoch, in rank order.
func (n *Node) DeadRanks() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]int, 0, len(n.dead))
	for r := range n.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
