package charm

import (
	"fmt"
	"runtime"
	"runtime/metrics"

	"repro/internal/bufpool"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/realrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Backend selects the execution substrate the runtime drives.
type Backend int

// Available backends.
const (
	// SimBackend is the deterministic discrete-event simulator (default):
	// virtual time, modelled costs, single-threaded.
	SimBackend Backend = iota
	// RealBackend executes the program on real parallel hardware: one
	// goroutine per PE, wall-clock time, CkDirect puts as true
	// shared-memory copies published by an atomic sentinel release-store.
	RealBackend
	// NetBackend executes the program across multiple OS processes
	// connected by TCP sockets: each process runs a realrt scheduler for
	// its block of PEs, Charm messages cross process boundaries as
	// eager or rendezvous frames, and CkDirect puts are deposited
	// directly into the remote registered buffer (see internal/netrt).
	NetBackend
)

// String names the backend like the -backend flag values.
func (b Backend) String() string {
	switch b {
	case SimBackend:
		return "sim"
	case RealBackend:
		return "real"
	case NetBackend:
		return "net"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "sim":
		return SimBackend, nil
	case "real":
		return RealBackend, nil
	case "net":
		return NetBackend, nil
	}
	return 0, fmt.Errorf("charm: unknown backend %q (want sim, real or net)", s)
}

// PutOp describes a one-sided put to the backend seam: the modelled path
// cost and event hooks (consumed by the simulator), and the actual memory
// operation (consumed by the real backend — the copy plus the sentinel
// release-store, built by the CkDirect layer which knows the buffer
// layout).
type PutOp struct {
	SrcPE, DstPE int
	Cost         netmodel.PathCost
	Hooks        netmodel.TransferHooks
	// Execute performs the put for real: copy payload into the receiver's
	// registered buffer, then release-store the sentinel word. Runs
	// synchronously on the sender's goroutine under RealBackend (and under
	// NetBackend when both PEs share the process); ignored by the
	// simulator.
	Execute func()
	// WireHandle and WirePayload describe the put for the distributed
	// backend: the SPMD-identical CkDirect handle id addressing the remote
	// registered buffer, and the raw source bytes to ship. WirePayload is
	// called only when the destination PE lives in another process.
	WireHandle  int
	WirePayload func() []byte
}

// backend is the seam between the runtime's logical layer (arrays, entry
// methods, reductions, CkDirect bookkeeping) and its execution substrate.
// Both the discrete-event simulator and the realrt goroutine runtime
// satisfy it; everything above dispatches through it and runs unmodified
// on either.
type backend interface {
	// now is the current time: virtual under sim, wall-clock under real.
	now() sim.Time
	// schedule places a task on a PE's scheduler queue.
	schedule(pe int, task func())
	// send performs two-sided message transport; deliver runs on the
	// destination PE when the message arrives.
	send(srcPE, dstPE, size int, deliver func())
	// put performs a one-sided transfer.
	put(op PutOp)
	// after runs a task on a PE after a plain delay (no CPU reserved).
	after(pe int, d sim.Time, task func())
	// charge accounts CPU consumed by the caller. A no-op under real —
	// real compute takes real time.
	charge(pe int, cost sim.Time)
	// run drives the system to completion and returns the final time.
	run() sim.Time
	// executed counts completed scheduler dispatches.
	executed() uint64
}

// simBackend adapts the discrete-event machinery already in RTS.
type simBackend struct{ rts *RTS }

func (b *simBackend) now() sim.Time { return b.rts.eng.Now() }

func (b *simBackend) schedule(pe int, task func()) { b.rts.simEnqueue(pe, task) }

func (b *simBackend) send(srcPE, dstPE, size int, deliver func()) {
	b.rts.simTransport(srcPE, dstPE, size, deliver)
}

func (b *simBackend) put(op PutOp) {
	b.rts.net.Transfer(op.SrcPE, op.DstPE, op.Cost, op.Hooks)
}

func (b *simBackend) after(pe int, d sim.Time, task func()) {
	b.rts.eng.Schedule(d, task)
}

func (b *simBackend) charge(pe int, cost sim.Time) {
	b.rts.pes[pe].pe.Reserve(cost)
}

func (b *simBackend) run() sim.Time { return b.rts.eng.Run() }

func (b *simBackend) executed() uint64 { return b.rts.eng.Executed() }

// realBackend adapts the realrt goroutine runtime.
type realBackend struct {
	rts *RTS
	rt  *realrt.Runtime
}

func (b *realBackend) now() sim.Time { return b.rt.Now() }

func (b *realBackend) schedule(pe int, task func()) { b.rt.Enqueue(pe, task) }

// send is a real shared-memory message: the payload was already cloned at
// the send site (Charm++ copy-on-send semantics), so delivery is an
// enqueue on the destination PE's scheduler queue. The cost a message
// pays here is real: the clone memcpy, the lock-free queue push plus
// wakeup kick, and a scheduler dispatch on the far side — exactly the
// overheads a CkDirect put avoids.
func (b *realBackend) send(srcPE, dstPE, size int, deliver func()) {
	b.rt.Enqueue(dstPE, deliver)
}

// put runs the one-sided transfer synchronously on the sender: the
// receiver is not involved until its poll loop observes the sentinel.
// The work credit is taken before the store publishes the payload and is
// held until the receiver's detection callback completes (PutDetected),
// so termination cannot race a landed-but-undetected put. The kick after
// the store is not part of delivery — the bytes are already published and
// a spinning receiver detects them without it — it only unparks a
// receiver that went idle, so detection latency stays in nanoseconds
// instead of a sleep.
func (b *realBackend) put(op PutOp) {
	b.rt.PutIssued()
	op.Execute()
	b.rt.Kick(op.DstPE)
	if op.Hooks.OnSendDone != nil {
		// Local completion is immediate: a shared-memory put's source
		// buffer is reusable as soon as the copy returns.
		op.Hooks.OnSendDone()
	}
}

func (b *realBackend) after(pe int, d sim.Time, task func()) {
	b.rt.After(pe, d, task)
}

func (b *realBackend) charge(pe int, cost sim.Time) {}

func (b *realBackend) run() sim.Time {
	// Freeze every reduction tree before workers start: freeze() mutates
	// shared reducer state and must not race its first concurrent use.
	for _, r := range b.rts.reducers {
		r.freeze()
	}
	return b.rts.runWithMemStats(b.rt.Run)
}

func (b *realBackend) executed() uint64 { return b.rt.Executed() }

// netBackend adapts the distributed netrt runtime. Cross-process traffic
// never reaches this adapter: SendPE, Array.Send and Array.Broadcast
// intercept remote destinations and ship wire envelopes before the
// transport closure is built, so schedule/send here always address a
// locally hosted PE.
type netBackend struct {
	rts *RTS
	nrt *netrt.Runtime
}

func (b *netBackend) now() sim.Time { return b.nrt.Now() }

func (b *netBackend) schedule(pe int, task func()) { b.nrt.Enqueue(pe, task) }

func (b *netBackend) send(srcPE, dstPE, size int, deliver func()) {
	b.nrt.Enqueue(dstPE, deliver)
}

// put performs the one-sided transfer. A destination in this process is
// the real backend's shared-memory put verbatim; a remote destination
// ships the raw source bytes addressed by the SPMD-identical handle id,
// and the receiving process deposits them into the registered buffer
// with the same copy + sentinel release-store. Local completion is
// immediate either way — the frame encoder copies the payload before
// SendPut returns, so the source buffer is reusable.
func (b *netBackend) put(op PutOp) {
	if b.nrt.Hosts(op.DstPE) {
		b.nrt.PutIssued()
		op.Execute()
		b.nrt.Kick(op.DstPE)
	} else {
		b.nrt.SendPut(op.DstPE, int64(op.WireHandle), op.WirePayload())
	}
	if op.Hooks.OnSendDone != nil {
		op.Hooks.OnSendDone()
	}
}

func (b *netBackend) after(pe int, d sim.Time, task func()) {
	b.nrt.After(pe, d, task)
}

func (b *netBackend) charge(pe int, cost sim.Time) {}

func (b *netBackend) run() sim.Time {
	// Freeze every reduction tree before workers start (see realBackend).
	for _, r := range b.rts.reducers {
		r.freeze()
	}
	t := b.rts.runWithMemStats(b.nrt.Run)
	// Network failures (a dead peer, a corrupt frame) surface through the
	// same error channel as contract violations.
	for _, err := range b.nrt.Errors() {
		b.rts.ReportError(err)
	}
	late := b.nrt.FramesAfterHalt()
	if late > 0 && b.rts.opts.Checked {
		b.rts.ReportError(&netrt.NetError{Rank: b.nrt.Rank(), Peer: -1, Op: "invariant",
			Err: fmt.Errorf("%d app frames arrived after the termination decision", late)})
	}
	if rec := b.rts.rec; rec != nil {
		// Mesh scale counters. These are cumulative over the node's
		// lifetime (connections opened at bootstrap included), not
		// per-run deltas: the recorder is fresh for each app run, and the
		// absolute values are what the scale claims are about — how many
		// sockets THIS communication pattern needed in total, and how
		// wide the termination tree's root fan-in ran.
		s := b.nrt.NetStats()
		rec.Incr(trace.CntNetConnsOpened, s.ConnsDialed+s.ConnsAccepted)
		rec.Incr(trace.CntNetConnsDialed, s.ConnsDialed)
		rec.Incr(trace.CntNetConnsAccepted, s.ConnsAccepted)
		rec.Incr(trace.CntNetDialReqs, s.DialReqs)
		rec.Incr(trace.CntNetProbeRounds, s.TermProbeRounds)
		rec.Incr(trace.CntNetProbeReports, s.TermProbeReports)
		rec.Incr(trace.CntNetEventRounds, s.TermEventRounds)
		rec.Incr(trace.CntNetTickRounds, s.TermTickRounds)
		rec.Incr(trace.CntNetNudges, s.TermNudges)
		rec.Incr(trace.CntNetAfterHalt, late)
		if b.nrt.Exited() {
			rec.Incr(trace.CntNetExits, 1)
		}
		rec.Incr(trace.CntNetShmCoalesced, s.ShmFramesCoalesced)
		rec.Incr(trace.CntNetShmDeclined, s.ShmDeclined)
		rec.Incr(trace.CntNetPutsDirect, s.PutsDirect)
		rec.Incr(trace.CntNetPutsFramed, s.PutsFramed)
	}
	return t
}

func (b *netBackend) executed() uint64 { return b.nrt.Executed() }

// runMetrics are the runtime/metrics scalars a live run is bracketed
// with, in the order runWithMemStats reads them. runtime/metrics reads
// them without stopping the world; reading runtime.MemStats stops it, and
// two such reads per run cost a mean 52–58 µs of every ckserve job on
// each rank (2-rank in-process world, 2 vCPUs).
var runMetrics = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
}

// runWithMemStats brackets a live-backend run with allocator, GC and
// wire-pool accounting, recording the deltas as mem.* / pool.* counters.
// Only the real and net backends call it: their costs are wall-clock
// real, so the allocator's contribution is a measurable overhead (the
// quantity this repo's zero-allocation hot paths exist to remove). The
// sim backend must never record these — its counter sets are compared
// wholesale by determinism tests, and allocator behaviour is not
// deterministic.
//
// The mem.* deltas come from runtime/metrics (see DESIGN §9 for what
// they mean exactly): mem.allocs counts heap objects, tiny ones
// included; mem.alloc_bytes the bytes of those objects; mem.gcs
// completed GC cycles; mem.gc_pause_ns the GC's stop-the-world CPU time
// divided by GOMAXPROCS, which is the pauses' wall time. Small-object
// counts are published when a span leaves a P's cache, so a delta is
// exact only to within one span per size class per P at each edge of
// the run (a GC flushes every cache).
func (rts *RTS) runWithMemStats(run func() sim.Time) sim.Time {
	rec := rts.rec
	if rec == nil {
		return run()
	}
	const n = len(runMetrics)
	s := make([]metrics.Sample, 2*n)
	for i, name := range runMetrics {
		s[i].Name, s[n+i].Name = name, name
	}
	before, after := s[:n], s[n:]
	poolBefore := bufpool.Default.Stats()
	metrics.Read(before)
	t := run()
	metrics.Read(after)
	poolAfter := bufpool.Default.Stats()
	delta := func(i int) int64 { return int64(after[i].Value.Uint64() - before[i].Value.Uint64()) }
	pause := after[4].Value.Float64() - before[4].Value.Float64()
	rec.Incr(trace.CntMemAllocs, delta(0)+delta(1))
	rec.Incr(trace.CntMemBytes, delta(2))
	rec.Incr(trace.CntMemGCs, delta(3))
	rec.Incr(trace.CntMemGCPauseNS, int64(pause*1e9/float64(runtime.GOMAXPROCS(0))))
	rec.Incr(trace.CntPoolGets, poolAfter.Gets-poolBefore.Gets)
	rec.Incr(trace.CntPoolPuts, poolAfter.Puts-poolBefore.Puts)
	rec.Incr(trace.CntPoolMisses, poolAfter.Misses-poolBefore.Misses)
	rec.Incr(trace.CntPoolOversize, poolAfter.Oversize-poolBefore.Oversize)
	return t
}
