// Package ckdirect implements the paper's contribution: CkDirect, a
// persistent, one-way, one-sided memory-to-memory channel between two
// chares in the Charm++ runtime (Bohm et al., ICPP 2009, §2).
//
// A channel is set up in two steps: the receiver creates a Handle over
// its destination buffer (CreateHandle), the handle travels to the sender
// (in-simulation this is a pointer hand-off; the paper ships it in a
// message), and the sender binds a local source buffer (AssocLocal). The
// sender may then Put repeatedly — one message in flight per channel —
// with no per-message synchronization: the receiver learns of arrival via
// a plain function callback, never through the scheduler.
//
// A channel is the one shape the paper evaluates: a contiguous receive
// buffer whose last 8-byte word is the sentinel, so every deposit is one
// contiguous copy followed by the sentinel's store. The receiver-driven
// get of §2 exists only as a sim-side cost study (get.go, ErrSimOnly on
// the live backends); the §6 future-work channels (strided, multicast,
// reduction, automatic learning) are not implemented.
//
// Two backend behaviours are modelled, selected by the platform:
//
//   - Infiniband (§2.1): the put is a true RDMA write. The receiving RTS
//     keeps a polling queue; CreateHandle stamps an out-of-band 8-byte
//     pattern at the end of the receive buffer, and a poll pass detects
//     completion when the last double word changes. ReadyMark re-arms the
//     sentinel; ReadyPollQ re-inserts the handle into the polling queue.
//     Polling costs CPU per handle per scheduler pass — the §5.2 overhead.
//
//   - Blue Gene/P (§2.2): the put is a DCMF two-sided send whose Info
//     header carries the full receive context; the DCMF receive completion
//     callback invokes the user callback directly. There is no polling and
//     the Ready calls have no effect.
package ckdirect

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/charm"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Setup-time CPU costs (registration with the NIC / DCMF request-state
// allocation). These happen once per channel, outside any measured loop.
const (
	createCPUUS = 1.5
	assocCPUUS  = 1.5
)

// State is the lifecycle position of a channel endpoint on the receiver.
type State int

// Channel states. The legal cycle on Infiniband is
// Armed → (put lands) → Fired → (ReadyMark) → Marked → (ReadyPollQ) → Armed;
// Ready performs Mark and PollQ together. On Blue Gene/P delivery runs
// Armed → Fired and ReadyMark/ReadyPollQ return it to Armed without any
// machinery.
const (
	// Armed: sentinel set; data may arrive. On IB the handle may or may
	// not currently be in the polling queue (ReadyPollQ controls that).
	Armed State = iota
	// Fired: data arrived and the callback ran; the buffer holds live
	// data the application has not released yet.
	Fired
	// Marked: ReadyMark re-armed the sentinel but the handle is not yet
	// being polled.
	Marked
)

func (s State) String() string {
	switch s {
	case Armed:
		return "Armed"
	case Fired:
		return "Fired"
	case Marked:
		return "Marked"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Handle is one CkDirect channel. It is created by the receiver and
// completed by the sender's AssocLocal.
type Handle struct {
	id  int
	mgr *Manager

	recvPE  int
	recvBuf *machine.Region
	oob     uint64
	cb      func(ctx *charm.Ctx)

	sendPE  int
	sendBuf *machine.Region

	// putOp is the prebuilt transfer op for the real and net backends,
	// assembled once at AssocLocal so the put fast path allocates
	// nothing: the Execute/WirePayload closures and the receiver Ctx
	// would otherwise be fresh heap objects on every Put.
	putOp   charm.PutOp
	recvCtx *charm.Ctx

	// tail8 stages the final 8 bytes of a streamed inbound put: the
	// sentinel word must not land in the buffer until every other byte
	// has, so the stream deposit parks it here before the publishing
	// release-store. Only the owning connection's reader touches it
	// (one sender rank per channel).
	tail8 [8]byte

	state   State
	inPollQ bool
	pollIdx int // position in the PE's polling tier while inPollQ
	// pollCold marks which tier of the PE's poll set holds the handle:
	// hot handles are scanned every scheduler pass, cold ones only on the
	// periodic full scan (real backend; see real.go). pollMisses counts
	// consecutive hot scans that found the sentinel unchanged — crossing
	// pollDemoteAfter moves the handle cold so long-lived idle channels
	// stop taxing every scheduler iteration.
	pollCold   bool
	pollMisses int
	inFlight   bool
	// sw points at the sentinel word for atomic access (real backend
	// only): release-stored by the sender's put, acquire-loaded by the
	// receiver's poll pass.
	sw *uint64
	// arena marks a receive buffer placed in a shm arena (net backend,
	// receiving rank; see placeRecvInShm): the sender may deposit into it
	// directly, and such a put is counted received only when realDetect
	// sees it. credited is set by any deposit that took the put's credit
	// and counted its receipt itself — a framed or in-process put into
	// the same buffer — before its publishing store; detection then
	// clears it instead of counting the put a second time.
	arena    bool
	credited atomic.Bool
	// _ keeps a Handle at 360 bytes, in the allocator's 384-byte size
	// class: a whole number of 64-byte cache lines, so every Handle
	// starts on a line and the line holding sw and arena, which each
	// put reads, is one the receiver's re-arm (pollRemove, pollInsert)
	// does not write. Without it a Handle is 328 bytes, the class is
	// 352, every other Handle straddles lines, and pp-real-1k's ckd p50
	// read 7 % higher.
	_ [32]byte
	// pendingDeliver records data that landed while the handle was not
	// in the polling queue (between ReadyMark and ReadyPollQ); ReadyPollQ
	// then detects it immediately (paper §2.1).
	pendingDeliver bool

	puts int64
	// delivered is the sequence number (1-based put ordinal) of the last
	// payload accepted into receiver memory. With one put in flight per
	// channel it doubles as the count of completed deliveries; the
	// sequence form lets replayed deliveries (duplicate faults, recovery
	// reissues racing the original) be recognized and discarded.
	delivered int64

	// Stall-watchdog state (see watchdog.go).
	wdTimer           *sim.Event
	reissues          int
	collisionReported bool
}

// ID returns the handle's identifier (unique per Manager).
func (h *Handle) ID() int { return h.id }

// State returns the receiver-side channel state.
func (h *Handle) State() State { return h.state }

// InFlight reports whether a put is currently in flight.
func (h *Handle) InFlight() bool { return h.inFlight }

// Puts returns how many puts were issued on this channel.
func (h *Handle) Puts() int64 { return h.puts }

// Delivered returns how many puts have completed delivery.
func (h *Handle) Delivered() int64 { return h.delivered }

// pollSet is one PE's polling queue, split into two tiers. hot is scanned
// on every scheduler pass; cold holds handles demoted after a long run of
// missed scans and is visited only every pollColdEvery-th pass (and on
// every full scan — before a worker parks and right after it wakes), so a
// large population of long-idle channels costs the per-pass loop nothing.
// Order within a tier is irrelevant: only the total count taxes the
// simulated scheduler.
type pollSet struct {
	hot, cold []*Handle
	passes    uint64 // realPoll pass counter, paces the cold-tier rescan
}

// execRT is the live-execution seam CkDirect needs from a non-simulated
// backend: installing the sentinel poll pass into the scheduler loops,
// telling a loop that its pass is about to run a callback (Busy), and
// returning put work credits after detection. Both the in-process
// realrt runtime and the distributed netrt runtime satisfy it.
type execRT interface {
	SetPoll(fn func(pe int, full bool) bool)
	Busy(pe int)
	PutDetected()
}

// Manager owns CkDirect state for one runtime: per-PE polling queues and
// the scheduler tax hook.
type Manager struct {
	rts    *charm.RTS
	nextID int
	polled []pollSet // per PE

	// mirrorMu serializes rehome updates of a mirror PE's poll set (see
	// onPollSet): hosted PEs' sets are owned by their scheduler loops.
	mirrorMu sync.Mutex

	// handles registers every created handle by id (id == index). The
	// distributed backend routes inbound put frames through it: the
	// handle id is the channel's wire identity, valid across processes
	// because SPMD setup creates handles in the same order everywhere.
	handles []*Handle

	// rt is the live-execution runtime under the real and net backends
	// (nil under sim); detection then happens in realPoll instead of
	// simulated events.
	rt execRT

	// net is the distributed runtime under the net backend (nil
	// otherwise): puts to remote PEs ship their bytes, inbound put
	// frames deposit through netPutStream.
	net *netrt.Runtime

	// wd, when non-nil, arms a virtual-time deadline per in-flight put
	// (see watchdog.go).
	wd *Watchdog

	// get-model state (see get.go).
	getHandles  []*GetHandle
	getSignalEP charm.EP

	// ctr holds the recorder's handles for the per-put and per-get
	// counters (charm.RTS.Counter); the get pair is registered only on
	// sim, the one backend that can create a get.
	ctr struct {
		puts, bytes, gets, getSignals trace.Counter
	}
}

// NewManager attaches CkDirect to a runtime. On platforms with a polling
// implementation it installs the polling tax into the scheduler.
func NewManager(rts *charm.RTS) *Manager {
	m := &Manager{
		rts:         rts,
		polled:      make([]pollSet, rts.Machine().NumPEs()),
		getSignalEP: -1,
	}
	m.ctr.puts = rts.Counter("ckd.puts")
	m.ctr.bytes = rts.Counter("ckd.bytes")
	if rt := rts.Real(); rt != nil {
		// Real backend: the scheduler loops poll for arrivals directly —
		// no modelled tax, the scan costs what it costs.
		m.rt = rt
		rt.SetPoll(m.realPoll)
		return m
	}
	if nrt := rts.NetRT(); nrt != nil {
		// Distributed backend: local detection is the real backend's poll
		// pass verbatim; framed puts from other processes are deposited
		// into the registered buffer by netPutStream, direct shm puts by
		// the sender itself.
		m.rt = nrt
		m.net = nrt
		nrt.SetPoll(m.realPoll)
		nrt.SetPutStream(m.netPutStream)
		return m
	}
	m.ctr.gets = rts.Counter("ckd.gets")
	m.ctr.getSignals = rts.Counter("ckd.get_signals")
	plat := rts.Platform()
	if !plat.CkdRecvIsCallback && plat.PollPerHandleNS > 0 {
		rts.SetPollTax(func(pe int) sim.Time {
			return sim.Nanoseconds(plat.PollPerHandleNS * float64(m.PolledOn(pe)))
		})
	}
	return m
}

// RTS returns the attached runtime.
func (m *Manager) RTS() *charm.RTS { return m.rts }

// PolledOn reports how many handles PE pe is currently polling, across
// both tiers.
func (m *Manager) PolledOn(pe int) int {
	return len(m.polled[pe].hot) + len(m.polled[pe].cold)
}

// CreateHandle is called by the receiver: it registers the receive buffer
// with the network layer, stamps the out-of-band pattern into its last 8
// bytes, installs the arrival callback, and (on polling platforms) inserts
// the handle into the PE's polling queue.
//
// oob is the double-word pattern the user guarantees will never appear as
// the last word of received data (e.g. a NaN payload in an array of
// doubles).
func (m *Manager) CreateHandle(pe int, buf *machine.Region, oob uint64, cb func(ctx *charm.Ctx)) (*Handle, error) {
	if buf == nil {
		return nil, fmt.Errorf("ckdirect: CreateHandle with nil buffer")
	}
	if buf.PE().ID() != pe {
		return nil, fmt.Errorf("ckdirect: buffer lives on PE %d, handle created on PE %d", buf.PE().ID(), pe)
	}
	if !buf.Virtual() && buf.Size() < 8 {
		return nil, &SubWordError{What: "receive buffer", Bytes: buf.Size()}
	}
	if cb == nil {
		return nil, fmt.Errorf("ckdirect: nil callback")
	}
	h := &Handle{
		id:      m.nextID,
		mgr:     m,
		recvPE:  pe,
		recvBuf: buf,
		oob:     oob,
		cb:      cb,
		sendPE:  -1,
		state:   Armed,
	}
	m.nextID++
	if m.rt != nil {
		// Real backend: the sentinel word must exist for real and be
		// addressable by 64-bit atomics.
		if buf.Virtual() {
			return nil, fmt.Errorf("ckdirect: handle %d needs a real buffer on the real backend", h.id)
		}
		sw, err := buf.Uint64At(buf.Size() - 8)
		if err != nil {
			return nil, fmt.Errorf("ckdirect: handle %d sentinel: %v (size the buffer in 8-byte words)", h.id, err)
		}
		h.sw = sw
		// One Ctx per handle: realDetect hands the same (stateless)
		// context to every callback instead of allocating one per
		// delivery.
		h.recvCtx = m.rts.CtxOn(pe)
	}
	m.handles = append(m.handles, h)
	m.rts.ChargeOn(pe, sim.Microseconds(createCPUUS))
	buf.SetRegistered(true)
	m.writeSentinel(h)
	if m.usesPolling() {
		m.pollInsert(h)
	}
	if rec := m.rts.Recorder(); rec != nil {
		rec.Incr("ckd.handles", 1)
	}
	return h, nil
}

// AssocLocal is called by the sender to bind its source buffer to the
// channel. The same source region may be associated with several handles
// (one copy of the data fanned out to many receivers, paper §2).
func (m *Manager) AssocLocal(h *Handle, pe int, src *machine.Region) error {
	if h.sendPE >= 0 {
		return fmt.Errorf("ckdirect: handle %d already associated", h.id)
	}
	if src == nil {
		return fmt.Errorf("ckdirect: AssocLocal with nil buffer")
	}
	if src.PE().ID() != pe {
		return fmt.Errorf("ckdirect: source buffer lives on PE %d, AssocLocal on PE %d", src.PE().ID(), pe)
	}
	if m.rt != nil {
		if src.Virtual() {
			return fmt.Errorf("ckdirect: handle %d needs a real source buffer on the real backend", h.id)
		}
		if src.Size() != h.recvBuf.Size() {
			return fmt.Errorf("ckdirect: handle %d source is %d bytes, destination transfer is %d (the real put lands the source's final word in the sentinel position)",
				h.id, src.Size(), h.recvBuf.Size())
		}
	}
	h.sendPE = pe
	h.sendBuf = src
	if m.rt != nil {
		// Prebuild the transfer op: Put is the hot path, and fresh
		// closures per call were its only allocations (realPut only
		// patches in the per-call OnSendDone hook).
		h.putOp = charm.PutOp{
			SrcPE: h.sendPE,
			DstPE: h.recvPE,
			Hooks: netmodel.TransferHooks{
				Kind: netmodel.KindCkdPut,
				Flow: h.id,
			},
			Execute:     func() { m.realDeposit(h) },
			WireHandle:  h.id,
			WirePayload: func() []byte { return h.sendBuf.Bytes() },
		}
	}
	m.rts.ChargeOn(pe, sim.Microseconds(assocCPUUS))
	src.SetRegistered(true)
	if m.net != nil {
		// Now that the channel knows its sender, the receiving rank can
		// move its destination buffer into the shm arena shared with
		// that sender (no-op when there is no such arena).
		m.placeRecvInShm(h)
	}
	return nil
}

// usesPolling reports whether this CkDirect detects completion by polling
// a sentinel (Infiniband) rather than a completion callback (Blue
// Gene/P). The real backend always polls: the sentinel IS its delivery
// mechanism, whatever platform table prices the run.
func (m *Manager) usesPolling() bool {
	return m.rt != nil || !m.rts.Platform().CkdRecvIsCallback
}

// UsesPolling is the exported form: applications with platform-dependent
// phase structure (OpenAtom's arm broadcast) consult the manager rather
// than the platform flag so the same code is correct on the real backend.
func (m *Manager) UsesPolling() bool { return m.usesPolling() }

// writeSentinel stamps the out-of-band pattern into the last 8 bytes of
// the receive buffer — detection later compares against it.
func (m *Manager) writeSentinel(h *Handle) {
	if h.sw != nil {
		// Real backend: an atomic store keeps the re-arm write ordered
		// against the concurrent acquire-loads of this PE's poll pass and
		// the sender's next release-store (which the application's phase
		// structure orders after this call).
		atomic.StoreUint64(h.sw, h.oob)
		return
	}
	if b := h.recvBuf.Bytes(); len(b) >= 8 {
		binary.LittleEndian.PutUint64(b[len(b)-8:], h.oob)
	}
}

// sentinelCleared reports whether the sentinel double word no longer
// equals the out-of-band pattern.
func (m *Manager) sentinelCleared(h *Handle) bool {
	b := h.recvBuf.Bytes()
	if len(b) < 8 {
		// Virtual region: the delivery flag stands in for the byte check
		// with identical timing.
		return h.pendingDeliver
	}
	return binary.LittleEndian.Uint64(b[len(b)-8:]) != h.oob
}

// pollInsert (re)arms polling for h. Handles always enter the hot tier:
// an application that just called ReadyPollQ expects the next put soon,
// and demotion re-sorts genuinely idle channels out on its own.
func (m *Manager) pollInsert(h *Handle) {
	if h.inPollQ {
		return
	}
	h.inPollQ = true
	h.pollCold = false
	h.pollMisses = 0
	ps := &m.polled[h.recvPE]
	h.pollIdx = len(ps.hot)
	ps.hot = append(ps.hot, h)
}

// pollRemove detaches h from its tier in O(1) by swapping the last entry
// into its slot — order carries no meaning (only the total count taxes
// the scheduler), and the linear scan this replaces made teardown of
// large handle populations quadratic.
func (m *Manager) pollRemove(h *Handle) {
	if !h.inPollQ {
		return
	}
	h.inPollQ = false
	ps := &m.polled[h.recvPE]
	tier := &ps.hot
	if h.pollCold {
		tier = &ps.cold
	}
	q := *tier
	i, last := h.pollIdx, len(q)-1
	q[i] = q[last]
	q[i].pollIdx = i
	q[last] = nil
	*tier = q[:last]
}

// pollDemote moves a long-idle handle from the hot tier to the cold one.
// Real backend only, called from the owning PE's poll pass.
func (m *Manager) pollDemote(h *Handle) {
	if !h.inPollQ || h.pollCold {
		return
	}
	m.pollRemove(h)
	h.inPollQ = true
	h.pollCold = true
	h.pollMisses = 0
	ps := &m.polled[h.recvPE]
	h.pollIdx = len(ps.cold)
	ps.cold = append(ps.cold, h)
}
