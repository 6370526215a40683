package netrt

// Hierarchical termination: the four-counter protocol's probe rounds
// aggregate up a k-ary tree over the ranks (k = Config.TermFanout)
// instead of funneling every report straight to rank 0. The root still
// runs the unchanged stability logic in Runtime.coordinate — two
// consecutive rounds of all-idle with globally equal, unchanged
// sent/received counts — but each round now costs the root O(k) frames
// and O(log_k N) latency rather than O(N) fan-in.
//
// Shape: rank r's parent is (r-1)/k, its children are k·r+1 …
// min(k·r+k, world-1) — the classic array heap layout, so the tree
// needs no setup traffic and every rank derives it locally. Probes flow
// root→leaves, reports leaves→root with each interior rank folding its
// subtree (idle &&=, s +=, r +=) before reporting up; FHalt flows
// root→leaves down the same edges. Parent < child always, so under lazy
// dialing the parent is the dialer on every tree edge and the protocol
// never needs an FDialReq.
//
// Correctness is the flat protocol's argument unchanged: counters are
// monotonic and a report is a snapshot taken at some instant during the
// round (leaves sample at probe receipt, interior ranks when their last
// child answers), so two consecutive rounds with all-idle and equal,
// unchanged global sums still prove no frame was in flight at the
// second round's start. A generation a rank has not attached yet
// reports non-idle with zero counters, exactly as before.
//
// When the root probes is event-driven (Runtime.coordinate): besides the
// root's own idle edge, what asks for a round is a nudge — an unsolicited
// FReport with epoch 0 — climbing the same tree, at most one per rank
// per probe round (payNudge), so the root's nudge fan-in is bounded by
// the fanout exactly as its report fan-in is.

// termParent returns rank r's parent in the k-ary termination tree.
func termParent(r, fanout int) int {
	return (r - 1) / fanout
}

// termChildren returns rank r's children in the k-ary tree over world
// ranks (nil for leaves).
func termChildren(r, fanout, world int) []int {
	lo := r*fanout + 1
	if lo >= world {
		return nil
	}
	hi := lo + fanout
	if hi > world {
		hi = world
	}
	kids := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		kids = append(kids, c)
	}
	return kids
}

// termKey names one in-flight aggregation: a probe round of one run
// generation in one probe epoch.
type termKey struct {
	run   int64
	epoch int64
}

// probeAgg accumulates an interior rank's subtree during one round.
type probeAgg struct {
	need, got int
	idle      bool
	s, r      int64
}

// localTermFrame builds this rank's own contribution to a round: the
// attached runtime's idle state and frame counters, or non-idle zeros
// when generation run has not attached here yet.
func (n *Node) localTermFrame(run, epoch int64) Frame {
	rep := Frame{Type: FReport, Run: run, A: epoch}
	if rt := n.current(run); rt != nil {
		idle, s, r := rt.localReport()
		if idle {
			rep.B = 1
		}
		rep.C, rep.D = s, r
	}
	return rep
}

// onProbe handles a termination probe arriving from this rank's tree
// parent. A leaf answers immediately; an interior rank opens an
// aggregation window and forwards the probe to its children — their
// reports cannot overtake this forward (every edge, ring or socket,
// delivers FIFO), so the window always exists when they arrive.
//
// Like every termination handler it speaks for the mesh epoch of the
// connection the frame came in on: the epoch is checked again under
// termMu, the lock Rejoin clears the windows and the nudge debt under
// (after bumping the epoch), and whatever it sends goes out by sendIn,
// which drops a frame of a torn-down mesh.
func (n *Node) onProbe(p *peerConn, f Frame) {
	if hold := n.handlerHold.Load(); hold != nil {
		defer (*hold)()()
	}
	kids := termChildren(n.rank, n.termFanout, n.world)
	key := termKey{run: f.Run, epoch: f.A}
	n.termMu.Lock()
	if p.epoch != n.epoch.Load() {
		n.termMu.Unlock()
		return
	}
	// Answering a probe puts this rank in debt of one nudge (payNudge).
	// The debt is recorded before the local state is sampled, so an idle
	// edge the sample just missed is certain to find it.
	n.nudgeRun = f.Run
	n.nudgeOwed.Store(true)
	if len(kids) > 0 {
		// A new round obsoletes older ones (the root abandoned them): prune
		// so an aborted run's windows don't accumulate.
		for k := range n.termAggs {
			if k.run < key.run || (k.run == key.run && k.epoch < key.epoch) {
				delete(n.termAggs, k)
			}
		}
		n.termAggs[key] = &probeAgg{need: len(kids), idle: true}
	}
	n.termMu.Unlock()
	if len(kids) == 0 {
		rep := n.localTermFrame(f.Run, f.A)
		n.sendIn(p.epoch, termParent(n.rank, n.termFanout), &rep)
		return
	}
	fwd := Frame{Type: FProbe, Run: f.Run, A: f.A}
	for _, c := range kids {
		n.sendIn(p.epoch, c, &fwd)
	}
}

// onReport handles a child's (possibly already-aggregated) report. At
// the root it feeds the coordinator's per-child table; at an interior
// rank it merges into the round's window and, when the last child has
// answered, folds in the local state and reports the whole subtree up.
// Reports for pruned windows (an abandoned round) drop silently — the
// root gave up on that round long ago. The epoch is checked again with
// the run lookup (the root) or under termMu (an interior rank), so a
// report of a torn-down mesh never lands in a rerun's table or window.
func (n *Node) onReport(p *peerConn, f Frame) {
	if hold := n.handlerHold.Load(); hold != nil {
		defer (*hold)()()
	}
	if f.A == 0 {
		// Epoch 0 is never probed: an unsolicited report is a nudge. An
		// interior rank passes it up (once per round); the root takes it
		// as a reason to probe.
		if n.rank != 0 {
			n.payNudge(f.Run)
			return
		}
		n.nudges.Add(1)
		if rt := n.runFor(p, f.Run); rt != nil {
			rt.noteEvent()
		}
		return
	}
	if n.rank == 0 {
		n.probeReports.Add(1)
		if rt := n.runFor(p, f.Run); rt != nil {
			rt.noteReport(p.rank, f)
		}
		return
	}
	key := termKey{run: f.Run, epoch: f.A}
	n.termMu.Lock()
	agg := n.termAggs[key]
	if agg == nil || p.epoch != n.epoch.Load() {
		n.termMu.Unlock()
		return
	}
	agg.got++
	agg.idle = agg.idle && f.B == 1
	agg.s += f.C
	agg.r += f.D
	done := agg.got == agg.need
	if done {
		delete(n.termAggs, key)
	}
	n.termMu.Unlock()
	if !done {
		return
	}
	rep := n.localTermFrame(f.Run, f.A)
	if !agg.idle {
		rep.B = 0
	}
	rep.C += agg.s
	rep.D += agg.r
	n.sendIn(p.epoch, termParent(n.rank, n.termFanout), &rep)
}

// payNudge sends the nudge this rank owes for run, if it owes one: an
// FReport with epoch 0 to the tree parent, saying "something under me
// changed since I answered your probe — ask again". A rank owes one per
// probe round and pays it at its next idle edge or when a child's nudge
// passes through, whichever is first; later ones in the same round are
// absorbed, so however many ranks go idle the root hears at most one
// nudge per child per round. A nudge is a hint: the root's rule reads
// only probe reports, so a lost or stale one costs a round or a tick,
// never a wrong halt.
func (n *Node) payNudge(run int64) {
	if !n.nudgeOwed.Load() {
		return
	}
	n.termMu.Lock()
	pay := n.nudgeOwed.Load() && n.nudgeRun == run
	if n.nudgeRun <= run {
		n.nudgeOwed.Store(false)
	}
	n.termMu.Unlock()
	if pay {
		n.sendTo(termParent(n.rank, n.termFanout), &Frame{Type: FReport, Run: run})
	}
}

// onHalt forwards the halt order down this rank's subtree, then halts
// the local run. Forwarding is unconditional — a rank that never
// attached the generation still owes its children the halt — and a halt
// for a generation this rank has not attached yet is kept for attach
// (haltFor): an Exit can end a run on ranks that never took part in it.
func (n *Node) onHalt(p *peerConn, f Frame) {
	if hold := n.handlerHold.Load(); hold != nil {
		defer (*hold)()()
	}
	fwd := Frame{Type: FHalt, Run: f.Run, A: f.A}
	for _, c := range termChildren(n.rank, n.termFanout, n.world) {
		n.sendIn(p.epoch, c, &fwd)
	}
	if rt := n.haltFor(p, f.Run); rt != nil {
		rt.halt(f.A == 1)
	}
}
