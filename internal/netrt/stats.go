package netrt

// NetStats is a snapshot of the node's scale counters: cumulative over
// the node's lifetime (bootstrap included), monotonic, and cheap to
// read — each field is one atomic load. The bench harness and the CI
// scale-smoke job read them to prove the O(N) claims: a sparse
// communication pattern under lazy dialing must open far fewer than
// N·(N−1) connections, and the root of the termination tree must see at
// most TermFanout reports per probe round.
type NetStats struct {
	// ConnsDialed and ConnsAccepted count this node's TCP mesh edges by
	// which side initiated; their sum is the node's total sockets
	// opened (each edge counts once per endpoint, so summing across a
	// world counts every edge twice).
	ConnsDialed   int64
	ConnsAccepted int64
	// DialReqs counts FDialReq frames this node originated (a higher
	// rank asking, via rank 0, to be dialed).
	DialReqs int64
	// TermProbeRounds counts probe rounds driven by this node as
	// termination-tree root; TermProbeReports counts reports arriving
	// at it as root. Their ratio is the root's per-round fan-in, which
	// the tree bounds by TermFanout.
	TermProbeRounds  int64
	TermProbeReports int64
	// TermEventRounds and TermTickRounds split TermProbeRounds by what
	// started the round: an event (the run beginning, the confirming
	// round, the root's idle edge, a nudge) or the 1 ms backstop firing
	// with no event pending. TermNudges counts nudges arriving at this
	// node as root; the tree bounds them, like reports, by TermFanout
	// per round.
	TermEventRounds int64
	TermTickRounds  int64
	TermNudges      int64
	// FramesAfterHalt counts app frames that reached a run after the
	// termination decision released its hold. The protocol's safety
	// property is that this stays zero.
	FramesAfterHalt int64
	// ShmFramesCoalesced counts frames that piggybacked on another
	// producer's ring write instead of taking the combining lock.
	ShmFramesCoalesced int64
	// ShmDeclined counts edges this node wanted on shared memory that
	// stayed on TCP: an offer it could not build, or one declined or not
	// taken up (ShmOff on this side is not counted).
	ShmDeclined int64
	// PutsDirect and PutsFramed split the cross-rank CkDirect puts this
	// node sent: deposited straight into a registered shm arena buffer,
	// or shipped as an FPut frame (TCP edges, strided or unregistered
	// handles, a put that raced its registration, a rehomed channel).
	PutsDirect int64
	PutsFramed int64
	// BatchGrows/BatchShrinks count per-peer writev window moves;
	// EagerShrinks counts adaptive eager-threshold halvings on
	// congested edges.
	BatchGrows   int64
	BatchShrinks int64
	EagerShrinks int64
	// TermFanout echoes the configured termination-tree fanout.
	TermFanout int
}

// Stats snapshots the node's scale counters.
func (n *Node) Stats() NetStats {
	return NetStats{
		ConnsDialed:        n.connsDialed.Load(),
		ConnsAccepted:      n.connsAccepted.Load(),
		DialReqs:           n.dialReqs.Load(),
		TermProbeRounds:    n.probeRounds.Load(),
		TermProbeReports:   n.probeReports.Load(),
		TermEventRounds:    n.eventRounds.Load(),
		TermTickRounds:     n.tickRounds.Load(),
		TermNudges:         n.nudges.Load(),
		FramesAfterHalt:    n.afterHalt.Load(),
		ShmFramesCoalesced: n.shmCoalesced.Load(),
		ShmDeclined:        n.shmDeclined.Load(),
		PutsDirect:         n.putsDirect.Load(),
		PutsFramed:         n.putsFramed.Load(),
		BatchGrows:         n.batchGrows.Load(),
		BatchShrinks:       n.batchShrinks.Load(),
		EagerShrinks:       n.eagerShrinks.Load(),
		TermFanout:         n.termFanout,
	}
}

// ConnsOpened is the node's total TCP sockets opened to peers, either
// direction, over its lifetime.
func (n *Node) ConnsOpened() int64 {
	return n.connsDialed.Load() + n.connsAccepted.Load()
}

// NetStats exposes the owning node's counters on the runtime, for
// callers (the charm backend's trace recording) that hold only the
// run-generation handle.
func (rt *Runtime) NetStats() NetStats { return rt.node.Stats() }
