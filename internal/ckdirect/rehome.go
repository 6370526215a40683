package ckdirect

import (
	"fmt"

	"repro/internal/trace"
)

// Channel rehoming for element migration (internal/lb): when a chare
// array element moves to a new PE, the CkDirect channels it receives on
// and sends from must follow it. A channel endpoint is runtime state —
// sentinel word, polling-queue membership, prebuilt transfer op — so
// rehoming is bookkeeping, not data movement: the registered buffers
// travel with the element's pupped state (or never move at all when the
// migration stays in-process).
//
// Like migration itself, rehoming is only legal at a quiescent cut: no
// put in flight on the channel, its last delivery consumed and the
// sentinel re-armed. RehomeRecv verifies exactly that (the same checks
// Quiescent applies per handle) before touching anything.
//
// Threading: under the live backends a handle's poll-queue fields are
// read continuously by the owning PE's scheduler loop — even when the
// run is otherwise idle, realPoll scans the poll set between tasks. All
// poll-set mutations therefore run as tasks on the owning PE, chained
// through done callbacks; on PEs this process does not host (or under
// the simulator, which is single-threaded at the cut) the step runs
// inline, and its poll-set update takes mirrorMu (onPollSet), because
// two hosted PEs can reach the same mirror PE at once. Fields only ever
// touched inside entry methods or Put calls
// (sendPE, the transfer op) have no concurrent reader at a quiescent
// cut and are mutated directly; the enqueue chain that resumes the run
// publishes them.

// rehomeStep runs fn on pe's scheduler queue when that PE has a live
// worker loop in this process, inline otherwise.
func (m *Manager) rehomeStep(pe int, fn func()) {
	if m.rt == nil || !m.rts.HostsPE(pe) {
		fn()
		return
	}
	m.rts.EnqueueOn(pe, fn)
}

// onPollSet runs a rehome's update of pe's poll set. A live backend's
// mirror PE — one this process does not host — has no scheduler loop to
// own its set, and its rehome steps run inline on whichever hosted PE
// reached them, so two hosted PEs can update the same mirror set at
// once; mirrorMu orders them. Hosted PEs' steps already run on the
// owning loop, and the simulator is single-threaded.
func (m *Manager) onPollSet(pe int, fn func()) {
	if m.rt != nil && !m.rts.HostsPE(pe) {
		m.mirrorMu.Lock()
		defer m.mirrorMu.Unlock()
	}
	fn()
}

// RehomeRecv moves a channel's receive endpoint to newPE and calls done
// when the move is complete (possibly before returning, when no live
// scheduler is involved). Every rank applies the identical rehome —
// SPMD bookkeeping, like MoveElement — and the drain guard runs only
// where the endpoint is hosted.
//
// The delivery sequence counters reset to zero on every rank: the old
// host's count would otherwise diverge from the new host's fresh view,
// and at a drained cut the absolute values carry no information (the
// sequence guard only needs put ordinals ahead of delivered ones, which
// a joint reset preserves).
func (m *Manager) RehomeRecv(h *Handle, newPE int, done func()) {
	oldPE := h.recvPE
	if newPE == oldPE {
		done()
		return
	}
	m.rehomeStep(oldPE, func() {
		if m.rts.HostsPE(oldPE) {
			if err := m.drainCheck(h); err != nil {
				m.rts.ReportError(fmt.Errorf("ckdirect: rehome handle %d: %w", h.id, err))
				done()
				return
			}
		}
		m.wdDisarm(h)
		var wasPolled bool
		m.onPollSet(oldPE, func() {
			wasPolled = h.inPollQ
			m.pollRemove(h) // uses the old PE's poll set; must precede the move
		})
		h.recvPE = newPE
		if m.rt != nil {
			h.recvCtx = m.rts.CtxOn(newPE)
			h.putOp.DstPE = newPE
		}
		h.puts = 0
		h.delivered = 0
		h.pendingDeliver = false
		if h.state == Fired {
			// Unreachable past the drain guard on the hosting rank; on
			// mirror ranks the state machine never left Armed.
			h.state = Armed
		}
		if m.net != nil {
			// A sender rank may hold a shared-memory put registration
			// aiming at the old host's arena slot; drop it everywhere so
			// post-migration puts take the framed path into the new
			// host's buffer. (Re-placement into the new edge's arena is
			// not attempted: the registration handshake would race the
			// SPMD drop, and framed puts are always correct.)
			m.net.DropPutBuffer(int64(h.id))
		}
		m.rehomeStep(newPE, func() {
			m.writeSentinel(h)
			if wasPolled {
				m.onPollSet(newPE, func() { m.pollInsert(h) })
			}
			if rec := m.rts.Recorder(); rec != nil && m.rts.HostsPE(newPE) {
				rec.Incr(trace.CntLBRehomedRecv, 1)
			}
			done()
		})
	})
}

// RehomeSend moves a channel's send endpoint to newPE. The send-side
// fields have no concurrent reader at a quiescent cut (Put only runs
// inside the sender's entry methods), so the mutation is inline; the
// scheduler enqueues that resume the run publish it to the new PE's
// goroutine.
func (m *Manager) RehomeSend(h *Handle, newPE int) {
	if h.sendPE < 0 || newPE == h.sendPE {
		return
	}
	h.sendPE = newPE
	if m.rt != nil {
		h.putOp.SrcPE = newPE
	}
	if rec := m.rts.Recorder(); rec != nil && m.rts.HostsPE(newPE) {
		rec.Incr(trace.CntLBRehomedSend, 1)
	}
}

// drainCheck is Quiescent's per-handle test: re-armed, nothing pending,
// sentinel bytes actually holding the out-of-band pattern. A channel
// failing it has a put in flight or an unconsumed delivery, and moving
// it would tear the transfer.
func (m *Manager) drainCheck(h *Handle) error {
	if h.state == Fired {
		return fmt.Errorf("unconsumed delivery (state %s) at migration cut", h.state)
	}
	if h.pendingDeliver {
		return fmt.Errorf("delivery pending at migration cut")
	}
	if !m.sentinelArmed(h) {
		return fmt.Errorf("sentinel not armed at migration cut (put in flight)")
	}
	// The byte check only trips once data lands; a put still traveling
	// shows up as an issued-but-undelivered sequence (and, under sim,
	// the inFlight latch). Rehoming now would point the sentinel guard
	// at a stale region and publish the arrival against it.
	if h.puts > h.delivered || (m.rt == nil && h.inFlight) {
		return fmt.Errorf("put in flight at migration cut (%d issued, %d delivered)", h.puts, h.delivered)
	}
	return nil
}

// sentinelArmed reports whether the sentinel double word holds the
// out-of-band pattern (trivially true for virtual regions, whose
// pendingDeliver flag stands in for the byte check).
func (m *Manager) sentinelArmed(h *Handle) bool {
	return !m.sentinelCleared(h)
}
