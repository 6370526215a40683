package netrt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/realrt"
	"repro/internal/sim"
)

// Runtime is one run generation on one process: a local realrt runtime
// hosting the PE block [Lo,Hi) of a global world of npes PEs, plus the
// per-run wire state — frame counters for termination, the rendezvous
// transfer table, and the abort/halt latch.
//
// The local realrt runtime is held open by one standing work credit
// (taken at creation via realrt's Hold, so the stall watchdog knows it
// is a wait, not runnable work) so its scheduler cannot conclude local
// quiescence while remote work may still arrive; only the distributed
// termination decision — or an abort — releases it.
type Runtime struct {
	node *Node
	gen  int64

	npes, lo, hi int
	rt           *realrt.Runtime

	sent, recv   atomic.Int64 // app frames only
	started      atomic.Bool
	holdReleased atomic.Bool
	halted       atomic.Bool // the hold was released by the termination decision
	decided      atomic.Bool // rank 0: the decision is taken (Exit or quiescence), the halt sent
	exited       atomic.Bool // the decision was the root's Exit, not quiescence
	aborted      atomic.Bool
	afterHalt0   int64 // node.afterHalt when this run was created

	deliver   func(env Env, pooled []byte)
	putStream func(id int64, size int, r io.Reader) error
	moveSink  func(array int64, payload []byte)
	locSink   func(payload []byte)

	xferMu   sync.Mutex
	xfers    map[int64]*pendingXfer
	nextXfer int64

	regMu    sync.Mutex
	regsOpen bool      // Run began: registrations go out as they are made
	heldRegs []heldReg // made during setup, sent by Run

	errMu sync.Mutex
	errs  []error

	repMu   sync.Mutex
	reports []peerReport // by rank; [n.rank] unused

	// event latches "something changed since the last probe round began"
	// (rank 0's scheduler crossed its idle edge, or a subtree nudged);
	// wakeC is the coordinator's sticky wake token — reports, events and
	// aborts all ring it, and the coordinator re-reads state on each wake.
	event atomic.Bool
	wakeC chan struct{}
	stopC chan struct{}
}

// pendingXfer is a rendezvous payload parked on the sender until the
// receiver's CTS arrives.
type pendingXfer struct {
	rank    int
	payload []byte
}

// peerReport is one rank's last termination report.
type peerReport struct {
	epoch int64
	idle  bool
	s, r  int64
}

// NewRuntime builds the runtime for the next run generation: a local
// realrt runtime hosting this process's share of npes global PEs. The
// PE block of rank r is [r*npes/world, (r+1)*npes/world), so every
// process derives the identical mapping from npes alone.
func (n *Node) NewRuntime(npes int) (*Runtime, error) {
	if npes < n.world {
		return nil, &NetError{Rank: n.rank, Peer: -1, Op: "bootstrap",
			Err: fmt.Errorf("fewer PEs than processes: cannot host %d PEs on %d ranks", npes, n.world)}
	}
	lo := n.rank * npes / n.world
	hi := (n.rank + 1) * npes / n.world
	n.mu.Lock()
	gen := n.nextGen
	n.nextGen++
	dead := n.deadErr
	n.mu.Unlock()
	rt := &Runtime{
		node:    n,
		gen:     gen,
		npes:    npes,
		lo:      lo,
		hi:      hi,
		rt:      realrt.New(hi - lo),
		xfers:   make(map[int64]*pendingXfer),
		reports: make([]peerReport, n.world),
		wakeC:   make(chan struct{}, 1),
		stopC:   make(chan struct{}),

		afterHalt0: n.afterHalt.Load(),
	}
	if n.world > 1 {
		// The standing hold credit; see the type comment. Taken as a
		// realrt Hold so the stall watchdog knows an idle rank parked
		// on it alone is waiting on the world, not deadlocked.
		rt.rt.Hold()
		rt.rt.SetIdleHook(rt.idleEdge)
	}
	if dead != nil {
		rt.abort(dead)
	}
	// Not attached yet: frames for this generation buffer in the node
	// until Run(), which attaches after the deliver/put hooks are set.
	return rt, nil
}

// Rank, World, NumPEs, Lo and Hi describe the placement.
func (rt *Runtime) Rank() int   { return rt.node.rank }
func (rt *Runtime) World() int  { return rt.node.world }
func (rt *Runtime) NumPEs() int { return rt.npes }
func (rt *Runtime) Lo() int     { return rt.lo }
func (rt *Runtime) Hi() int     { return rt.hi }

// Hosts reports whether the global PE lives on this process.
func (rt *Runtime) Hosts(pe int) bool { return pe >= rt.lo && pe < rt.hi }

// RankOf returns the rank hosting a global PE.
func (rt *Runtime) RankOf(pe int) int {
	// Inverse of the block mapping; a loop keeps it exact for every
	// npes/world split without floor-division edge cases.
	for r := 0; r < rt.node.world; r++ {
		if pe < (r+1)*rt.npes/rt.node.world {
			return r
		}
	}
	return rt.node.world - 1
}

func (rt *Runtime) localOf(pe int) int {
	if !rt.Hosts(pe) {
		panic(fmt.Sprintf("netrt: PE %d is not hosted by rank %d (PEs [%d,%d))", pe, rt.node.rank, rt.lo, rt.hi))
	}
	return pe - rt.lo
}

// SetDeliver installs the handler for inbound Charm envelopes. It runs
// on connection reader goroutines; the handler must re-enqueue onto the
// destination PE rather than execute in place. The envelope is passed by
// value so the hot eager path heap-allocates nothing for it. When pooled
// is non-nil, the envelope's Data (and the encoded bytes it aliases)
// live in that pooled buffer, and the handler owns it: it must
// bufpool.Put(pooled) after the last handler touching the envelope
// completes. With pooled nil the envelope owns plain heap memory and the
// GC handles it.
func (rt *Runtime) SetDeliver(fn func(env Env, pooled []byte)) { rt.deliver = fn }

// SetPutStream installs the handler for inbound one-sided put frames
// (id = CkDirect handle id): the sink reads exactly size payload bytes
// from r straight into the preregistered destination region. A put read
// off the wire streams from the connection (zero-copy); a frame buffered
// before its run attached replays from its payload bytes. A sink that
// cannot accept the put (unknown id, size mismatch) must still consume
// exactly size bytes to keep the stream in sync and report the condition
// out of band; a returned error means the stream itself failed and the
// connection dies.
func (rt *Runtime) SetPutStream(fn func(id int64, size int, r io.Reader) error) { rt.putStream = fn }

// SetMoveSink installs the handler for inbound element-migration
// frames (array = ordinal, payload = index + packed state). It runs on
// connection reader goroutines; the payload is only valid during the
// call, so the sink must copy what it keeps and re-enqueue the actual
// application onto a local PE — that Enqueue is also the work credit
// that keeps termination honest (taken before the frame's receipt is
// counted).
func (rt *Runtime) SetMoveSink(fn func(array int64, payload []byte)) { rt.moveSink = fn }

// SetLocSink installs the handler for inbound location-update (load
// balancing plan) broadcasts. Same contract as SetMoveSink: reader
// goroutine, payload valid only during the call, credit work before
// returning.
func (rt *Runtime) SetLocSink(fn func(payload []byte)) { rt.locSink = fn }

// SetPoll installs the CkDirect poll hook, translating the local PE
// index the scheduler passes back to the global PE space.
func (rt *Runtime) SetPoll(fn func(pe int, full bool) bool) {
	lo := rt.lo
	rt.rt.SetPoll(func(lpe int, full bool) bool { return fn(lo+lpe, full) })
}

// Enqueue schedules work on a locally hosted global PE.
func (rt *Runtime) Enqueue(pe int, fn func()) { rt.rt.Enqueue(rt.localOf(pe), fn) }

// After schedules a task on a locally hosted global PE after a delay.
func (rt *Runtime) After(pe int, d sim.Time, fn func()) { rt.rt.After(rt.localOf(pe), d, fn) }

// Kick wakes a locally hosted global PE's poll loop.
func (rt *Runtime) Kick(pe int) { rt.rt.Kick(rt.localOf(pe)) }

// Now returns local wall-clock time since the runtime was built.
func (rt *Runtime) Now() sim.Time { return rt.rt.Now() }

// Executed returns the local completed-task count.
func (rt *Runtime) Executed() uint64 { return rt.rt.Executed() }

// PutIssued and PutDetected expose the local work-credit pair.
func (rt *Runtime) PutIssued()   { rt.rt.PutIssued() }
func (rt *Runtime) PutDetected() { rt.rt.PutDetected() }

// PutLanded is the receive side of a direct shm put, called by the
// receiving PE's poll pass when it detects one, before the callback: no
// frame carried the put, so its work credit and its receipt are taken
// here, in handleApp's order (credit, the after-halt check, recv). Until
// then the sender's count is ahead of every receipt, so a put that landed
// but is not yet detected keeps the global sums apart and termination
// cannot conclude around it. PutDetected after the callback returns the
// credit, as for every put.
func (rt *Runtime) PutLanded() {
	raceWireObserve()
	rt.rt.PutIssued()
	if rt.halted.Load() {
		rt.node.afterHalt.Add(1)
	}
	rt.recv.Add(1)
}

// SendMsg ships one Charm envelope to the process hosting env.DstPE:
// an eager frame when the encoding fits the threshold, a rendezvous
// RTS/CTS/data exchange otherwise.
func (rt *Runtime) SendMsg(env *Env) {
	dst := rt.RankOf(env.DstPE)
	if EnvWireSize(env) <= DefaultEagerMax {
		// Eager fast path: header and envelope encode in one pass into
		// one pooled frame buffer (sendEnv) — no intermediate encode.
		rt.sent.Add(1)
		rt.node.sendEnv(dst, FEager, rt.gen, env)
		return
	}
	// Rendezvous: the payload parks in xfers until the CTS arrives, for
	// an unbounded time — plain heap memory, so it cannot pin the pool.
	b := EncodeEnv(env)
	rt.xferMu.Lock()
	id := rt.nextXfer
	rt.nextXfer++
	rt.xfers[id] = &pendingXfer{rank: dst, payload: b}
	rt.xferMu.Unlock()
	// The send counter rises at RTS time: the transfer is outstanding
	// from the moment it is requested, so termination cannot conclude
	// between the RTS and the data frame.
	rt.sent.Add(1)
	rt.node.sendTo(dst, &Frame{Type: FRTS, Run: rt.gen, A: id, B: int64(len(b))})
}

// SendCast ships one broadcast envelope to every other process; each
// receiver fans it out to its local elements of the array.
func (rt *Runtime) SendCast(env *Env) {
	for r := 0; r < rt.node.world; r++ {
		if r == rt.node.rank {
			continue
		}
		rt.sent.Add(1)
		rt.node.sendEnv(r, FCast, rt.gen, env)
	}
}

// SendPut ships a one-sided put: the raw source bytes, addressed by the
// SPMD-identical CkDirect handle id — deposited straight into the
// receiver's registered arena buffer when the edge has one (directPut),
// framed otherwise. Either way the bytes are copied before SendPut
// returns, so the caller may reuse (or let the application overwrite)
// the source buffer at once — the local-completion semantics of the real
// backend's put.
func (rt *Runtime) SendPut(dstPE int, handleID int64, payload []byte) {
	rank := rt.RankOf(dstPE)
	// Counted before anything is published: a direct put can be detected
	// and counted received (PutLanded) the instant its sentinel store
	// lands, and a receipt must never be ahead of its send.
	rt.sent.Add(1)
	if t := rt.node.peerTable(); t != nil && t[rank] != nil && t[rank].directPut(rt.gen, handleID, payload) {
		rt.node.putsDirect.Add(1)
		return
	}
	rt.node.putsFramed.Add(1)
	rt.node.sendTo(rank, &Frame{Type: FPut, Run: rt.gen, A: handleID, Payload: payload})
}

// SendMove ships a migrating element's packed state to the rank that
// now hosts it. The frame copies the payload at encode time, so the
// caller's buffer is free on return.
func (rt *Runtime) SendMove(rank int, array int64, payload []byte) {
	rt.sent.Add(1)
	rt.node.sendTo(rank, &Frame{Type: FMove, Run: rt.gen, A: array, Payload: payload})
}

// SendLoc broadcasts an encoded load-balancing plan to every other
// rank; each receiver applies the identical location updates.
func (rt *Runtime) SendLoc(payload []byte) {
	for r := 0; r < rt.node.world; r++ {
		if r == rt.node.rank {
			continue
		}
		rt.sent.Add(1)
		rt.node.sendTo(r, &Frame{Type: FLoc, Run: rt.gen, Payload: payload})
	}
}

// AllocPutRegion carves a CkDirect destination buffer out of the shm
// arena shared with rank (the sender-to-be), so that sender's puts can
// land by plain memcpy. Returns the arena-backed slice, its offset for
// registration, and ok=false when no shm link (or arena space) exists
// toward that rank — the caller then keeps its ordinary heap buffer.
func (rt *Runtime) AllocPutRegion(rank, size int) ([]byte, int64, bool) {
	if rank == rt.node.rank || size < 8 || size%8 != 0 {
		return nil, 0, false
	}
	t := rt.node.peerTable()
	if t == nil || rank < 0 || rank >= len(t) || t[rank] == nil {
		return nil, 0, false
	}
	return t[rank].allocArena(rt.gen, size)
}

// RegisterPutBuffer advertises an arena-resident destination buffer to
// the sending rank: puts into handle id may henceforth be deposited at
// arena offset off (size bytes, sentinel in the last 8). An uncounted
// control frame on the ring, ordered before nothing; a put that races
// ahead of it simply takes the frame path into the very same rebound
// buffer.
//
// A registration made before Run is held until Run: until then the
// application may still write the buffer — a checkpoint restore puts the
// saved bytes back after setup — and would erase a deposit that landed
// first, where a framed put arriving that early waits in the node's
// buffer for attach.
func (rt *Runtime) RegisterPutBuffer(rank int, id, off, size int64) bool {
	f := Frame{Type: FShmReg, Run: rt.gen, A: id, B: off, C: size}
	rt.regMu.Lock()
	if !rt.regsOpen {
		rt.heldRegs = append(rt.heldRegs, heldReg{rank: rank, f: f})
		rt.regMu.Unlock()
		return true
	}
	rt.regMu.Unlock()
	return rt.node.sendTo(rank, &f)
}

// heldReg is a put-buffer registration waiting for Run.
type heldReg struct {
	rank int
	f    Frame
}

// openRegs sends the registrations held since setup; later ones go out
// at once.
func (rt *Runtime) openRegs() {
	rt.regMu.Lock()
	held := rt.heldRegs
	rt.heldRegs, rt.regsOpen = nil, true
	rt.regMu.Unlock()
	for i := range held {
		rt.node.sendTo(held[i].rank, &held[i].f)
	}
}

// DropPutBuffer invalidates any shared-memory put registration this
// process holds for handle id, toward every peer: subsequent puts on
// that channel take the framed path. Called on every rank when a
// channel's receive endpoint migrates (SPMD bookkeeping) — the old
// arena slot must stop accepting deposits the moment the cut applies.
func (rt *Runtime) DropPutBuffer(id int64) {
	t := rt.node.peerTable()
	if t == nil {
		return
	}
	for _, p := range t {
		if p != nil {
			p.dropReg(id)
		}
	}
}

// handleApp processes one app frame for this run. It runs on connection
// reader goroutines. The credit discipline: any work the frame creates
// is credited (Enqueue/PutIssued) BEFORE recv is incremented, so a
// probe that sees matched sums cannot race ahead of uncredited work.
//
// pooled reports whether f.Payload is a reader-owned pool buffer; the
// return value is true only when ownership of that buffer moved onward
// (an eager deliver whose consumer will Put it back). Replayed buffered
// frames arrive with pooled=false and plain heap payloads.
func (rt *Runtime) handleApp(rank int, f Frame, pooled bool) bool {
	if rt.aborted.Load() {
		// An aborting run must not create local work: releasing the hold
		// credit lets the scheduler observe quiescence and unwind, and a
		// late frame from a peer that has not noticed the failure yet
		// would Enqueue onto workers that may already have exited.
		return false
	}
	if rt.halted.Load() {
		// The termination decision proved no app frame was in flight, so
		// this one falsifies it: counted, and an error under Checked.
		rt.node.afterHalt.Add(1)
	}
	switch f.Type {
	case FEager, FData:
		// FData is a granted rendezvous body; the RTS was counted at
		// issue, the data frame itself is the one counted receipt.
		// The envelope aliases the payload bytes in place (no decode
		// copy); with a pooled payload, ownership rides along and the
		// deliver consumer returns the buffer after the handler runs.
		env, err := DecodeEnvShared(f.Payload)
		if err != nil {
			rt.abort(&NetError{Rank: rt.node.rank, Peer: rank, Op: "read", Err: err})
			return false
		}
		consumed := false
		if rt.deliver != nil {
			if pooled {
				rt.deliver(env, f.Payload)
				consumed = true
			} else {
				rt.deliver(env, nil)
			}
		}
		rt.recv.Add(1)
		return consumed
	case FRTS:
		// Grant immediately: the socket-emulated receiver has no memory
		// registration to perform, so CTS is just flow-control echo.
		rt.node.sendTo(rank, &Frame{Type: FCTS, Run: rt.gen, A: f.A})
	case FCTS:
		rt.xferMu.Lock()
		x := rt.xfers[f.A]
		delete(rt.xfers, f.A)
		rt.xferMu.Unlock()
		if x != nil {
			// Off the reader goroutine: a large data frame may block on a
			// full outbox, and a reader must never block on sending.
			go rt.node.sendTo(x.rank, &Frame{Type: FData, Run: rt.gen, A: f.A, Payload: x.payload})
		}
	case FPut:
		// A put that did not stream (a replayed buffered frame, or no
		// sink when it arrived) goes through the same sink, read from
		// its payload bytes, which the reader reclaims once it returns.
		if rt.putStream != nil {
			if err := rt.putStream(f.A, len(f.Payload), bytes.NewReader(f.Payload)); err != nil {
				rt.abort(&NetError{Rank: rt.node.rank, Peer: rank, Op: "read", Err: err})
				return false
			}
		}
		rt.recv.Add(1)
	case FCast:
		// A broadcast fans out to every local element — a multi-consumer
		// payload with no single release point — so the decode copies
		// and the reader reclaims the wire buffer immediately.
		env, err := DecodeEnv(f.Payload)
		if err != nil {
			rt.abort(&NetError{Rank: rt.node.rank, Peer: rank, Op: "read", Err: err})
			return false
		}
		if rt.deliver != nil {
			rt.deliver(env, nil)
		}
		rt.recv.Add(1)
	case FMove:
		// The sink copies the payload and enqueues the unpack onto a
		// local PE before returning — the credit-before-recv discipline.
		if rt.moveSink != nil {
			rt.moveSink(f.A, f.Payload)
		}
		rt.recv.Add(1)
	case FLoc:
		if rt.locSink != nil {
			rt.locSink(f.Payload)
		}
		rt.recv.Add(1)
	}
	return false
}

// localReport captures this process's termination state: idle when the
// run has started and the only outstanding work credit is the standing
// hold, plus the app-frame counters.
func (rt *Runtime) localReport() (idle bool, s, r int64) {
	idle = rt.started.Load() && rt.rt.Outstanding() == 1
	return idle, rt.sent.Load(), rt.recv.Load()
}

// noteReport records a peer's answer to a termination probe and wakes
// the coordinator waiting on it.
func (rt *Runtime) noteReport(rank int, f Frame) {
	rt.repMu.Lock()
	rt.reports[rank] = peerReport{epoch: f.A, idle: f.B == 1, s: f.C, r: f.D}
	rt.repMu.Unlock()
	rt.wake()
}

// wake deposits the coordinator's wake token (sticky, capacity one).
func (rt *Runtime) wake() {
	select {
	case rt.wakeC <- struct{}{}:
	default:
	}
}

// idleEdge is the local scheduler's idle hook: a retired unit of work
// left only the standing hold outstanding. It runs on PE goroutines after
// every task of a rank that is waiting on a remote reply, so both arms
// are one atomic load when there is nothing to announce. On rank 0 the
// edge is a reason to probe; elsewhere it is when this rank pays the
// nudge it owes its tree parent.
func (rt *Runtime) idleEdge() {
	if rt.node.rank == 0 {
		rt.noteEvent()
	} else {
		rt.node.payNudge(rt.gen)
	}
}

// noteEvent latches a round trigger for the coordinator; only the first
// since the last round began rings the wake token.
func (rt *Runtime) noteEvent() {
	if !rt.event.Load() && !rt.event.Swap(true) {
		rt.wake()
	}
}

// Run executes the run generation to distributed completion and returns
// the local realrt elapsed time. Rank 0 drives termination detection;
// every rank's local scheduler drains once its hold credit is released
// by the coordinator's halt (or by an abort).
func (rt *Runtime) Run() sim.Time {
	rt.node.attach(rt)
	rt.started.Store(true)
	rt.openRegs()
	if rt.node.world > 1 {
		if rt.node.rank == 0 {
			go rt.coordinate()
		} else if idle, _, _ := rt.localReport(); idle {
			// A run that never enqueues here crosses no idle edge, yet a
			// probe that came before the attach was answered non-idle.
			rt.idleEdge()
		}
	}
	d := rt.rt.Run()
	close(rt.stopC)
	rt.node.detach(rt)
	return d
}

// Pacing of the probe rounds. A round that does not lead to a halt is
// followed by the next one when something changed (an event) and at
// least the floor has passed since it began; the floor doubles with
// every such round from termFloorMin up to termTick, so a long run with
// constant traffic is probed no more often than once per termTick. With
// no event, termTick after the round began is the liveness backstop: a
// nudge lost to a race delays the halt by one tick and nothing more.
const (
	termTick       = time.Millisecond
	termFloorMin   = 20 * time.Microsecond
	termReportWait = 250 * time.Millisecond
)

// coordinate is rank 0's termination loop: each epoch, probe the root's
// children in the k-ary termination tree (every other rank's report
// arrives pre-aggregated up that tree — see term.go), and halt only
// after two consecutive epochs in which every subtree was idle and the
// global sent/received sums matched and did not change — the second
// round proves no frame was in flight past the first.
//
// The rule is timing-free; what this loop decides is only when a round
// begins. The first goes out at once, the confirming round follows an
// all-idle matched round immediately, and every other round waits for
// an event or the backstop (see the pacing constants). All waits are on
// the wake token, so a report, a nudge, rank 0's own idle edge and an
// abort each cost the coordinator a wakeup, not a polling interval.
func (rt *Runtime) coordinate() {
	n := rt.node
	kids := termChildren(0, n.termFanout, n.world)
	alarm := time.NewTimer(termReportWait)
	defer alarm.Stop()
	var epoch int64
	var stable int
	var lastS, lastR int64 = -1, -1
	floor := termFloorMin
	byEvent := true
	for !rt.decided.Load() {
		epoch++
		n.probeRounds.Add(1)
		if byEvent {
			n.eventRounds.Add(1)
		} else {
			n.tickRounds.Add(1)
		}
		rt.event.Store(false)
		began := time.Now()
		probe := Frame{Type: FProbe, Run: rt.gen, A: epoch}
		for _, r := range kids {
			n.sendTo(r, &probe)
		}
		// Wait (bounded) for every subtree's report for this epoch.
		for !rt.epochComplete(epoch, kids) {
			left := termReportWait - time.Since(began)
			if left <= 0 {
				break
			}
			if !rt.termSleep(alarm, left) {
				return
			}
		}
		confirm := false
		if !rt.epochComplete(epoch, kids) {
			stable = 0
		} else {
			idle, s, r := rt.localReport()
			allIdle := idle
			rt.repMu.Lock()
			for _, rank := range kids {
				rep := rt.reports[rank]
				allIdle = allIdle && rep.idle
				s += rep.s
				r += rep.r
			}
			rt.repMu.Unlock()
			if allIdle && s == r && s == lastS && r == lastR {
				stable++
			} else {
				stable = 0
			}
			lastS, lastR = s, r
			if stable >= 1 {
				// Two consecutive matching epochs (this one and the one that
				// set lastS/lastR): globally terminated.
				rt.decide(false)
				return
			}
			confirm = allIdle && s == r
		}
		if confirm {
			byEvent = true
			continue
		}
		for {
			wait := termTick
			if byEvent = rt.event.Load(); byEvent {
				wait = floor
			}
			if wait -= time.Since(began); wait <= 0 {
				break
			}
			if !rt.termSleep(alarm, wait) {
				return
			}
		}
		if floor *= 2; floor > termTick {
			floor = termTick
		}
	}
}

// termSleep parks the coordinator until its wake token rings or d
// passes; false means the run is over (stopped, aborted or decided) and
// the coordinator must exit.
func (rt *Runtime) termSleep(alarm *time.Timer, d time.Duration) bool {
	if !alarm.Stop() {
		select {
		case <-alarm.C:
		default:
		}
	}
	alarm.Reset(d)
	select {
	case <-rt.stopC:
		return false
	case <-rt.wakeC:
	case <-alarm.C:
	}
	return !rt.aborted.Load() && !rt.decided.Load()
}

// epochComplete reports whether every root-child subtree has answered
// the given probe epoch.
func (rt *Runtime) epochComplete(epoch int64, kids []int) bool {
	rt.repMu.Lock()
	defer rt.repMu.Unlock()
	for _, rank := range kids {
		if rt.reports[rank].epoch != epoch {
			return false
		}
	}
	return true
}

// ErrExitOffRoot is the contract violation Exit reports on a rank other
// than 0: only the root knows that the whole run is finished.
var ErrExitOffRoot = errors.New("Exit off the root rank: only rank 0 ends a run")

// Exit ends the run from its root at once, the analogue of Charm++'s
// CkExit: the halt goes down the termination tree without waiting for a
// quiescence wave. The caller vouches that no app frame of this run is in
// flight or still to be sent — an app's last step barrier proves it, as
// it does for a checkpoint or balancing round — and a frame that arrives
// anyway is counted after the halt, an invariant error under Checked.
// Only rank 0 may call it: elsewhere it ends nothing and returns a
// NetError wrapping ErrExitOffRoot. Whichever of Exit and the
// coordinator's own decision comes first halts the run; the other sends
// nothing.
func (rt *Runtime) Exit() error {
	if rt.node.rank != 0 {
		return &NetError{Rank: rt.node.rank, Peer: -1, Op: "invariant", Err: ErrExitOffRoot}
	}
	rt.decide(true)
	return nil
}

// Exited reports whether the run ended by the root's Exit rather than by
// quiescence detection.
func (rt *Runtime) Exited() bool { return rt.exited.Load() }

// decide takes the termination decision on rank 0, once: it announces
// the halt down the tree and releases the local hold. Interior ranks
// forward the halt to their own children (onHalt). The frame's A field
// says whether the decision was an Exit.
func (rt *Runtime) decide(exit bool) {
	if !rt.decided.CompareAndSwap(false, true) {
		return
	}
	f := Frame{Type: FHalt, Run: rt.gen}
	if exit {
		f.A = 1
	}
	for _, r := range termChildren(0, rt.node.termFanout, rt.node.world) {
		rt.node.sendTo(r, &f)
	}
	rt.halt(exit)
	rt.wake() // a coordinator between rounds sees the decision and stops
}

// halt is the termination decision arriving at this rank: from here on
// an app frame for this run is a protocol violation (handleApp counts
// it), and the hold is released so Run returns.
func (rt *Runtime) halt(exit bool) {
	if exit {
		rt.exited.Store(true)
	}
	rt.halted.Store(true)
	rt.release()
}

// release returns the standing hold credit, letting the local scheduler
// observe quiescence and return from Run.
func (rt *Runtime) release() {
	if rt.node.world > 1 && rt.holdReleased.CompareAndSwap(false, true) {
		rt.rt.Release()
	}
}

// abort records a fatal error and forces the run to unwind: the hold
// credit is released so the local scheduler drains and Run returns,
// with the error waiting in Errors.
func (rt *Runtime) abort(err error) {
	rt.errMu.Lock()
	rt.errs = append(rt.errs, err)
	rt.errMu.Unlock()
	rt.aborted.Store(true)
	rt.release()
	rt.wake()
}

// Aborted reports whether the run was aborted.
func (rt *Runtime) Aborted() bool { return rt.aborted.Load() }

// FramesAfterHalt returns how many app frames reached this run after
// the termination decision released its hold — zero unless the
// termination protocol halted a run that still had a frame in flight.
func (rt *Runtime) FramesAfterHalt() int64 { return rt.node.afterHalt.Load() - rt.afterHalt0 }

// Errors returns the fatal errors recorded during the run.
func (rt *Runtime) Errors() []error {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	return append([]error(nil), rt.errs...)
}
