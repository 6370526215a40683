package ckdirect

import (
	"encoding/binary"
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Put initiates the one-sided transfer on a channel: the contents of the
// associated local buffer are written into the remote receive buffer.
// There is no synchronization with the receiver; the application's own
// phase structure must guarantee the receiver called ReadyMark (or is a
// fresh channel) before the data lands. Violations are detected in
// checked mode.
func (m *Manager) Put(h *Handle) error { return m.PutNotify(h, nil) }

// PutNotify is Put with a local send-completion notification, mirroring
// DCMF's local completion callback: onLocalDone fires on the sender when
// the source buffer may be reused.
func (m *Manager) PutNotify(h *Handle, onLocalDone func()) error {
	if h.sendPE < 0 {
		return m.misuse(fmt.Errorf("ckdirect: Put on handle %d before AssocLocal", h.id))
	}
	if m.rt == nil && h.inFlight {
		// Sim-only: inFlight is cleared by the receiver-side delivery event,
		// which the real backend's sender goroutine must not read.
		return m.misuse(fmt.Errorf("ckdirect: Put on handle %d with a message already in flight", h.id))
	}
	if m.rts.Options().Checked {
		if sb := h.sendBuf.Bytes(); len(sb) >= 8 {
			// The user contract: the OOB pattern never appears as the
			// last word of transmitted data.
			if binary.LittleEndian.Uint64(sb[len(sb)-8:]) == h.oob {
				return m.misuse(fmt.Errorf("ckdirect: handle %d payload ends with the out-of-band pattern %#x", h.id, h.oob))
			}
		}
	}
	m.ctr.puts.Add(h.sendPE, 1)
	m.ctr.bytes.Add(h.sendPE, int64(h.sendBuf.Size()))
	if m.rt != nil {
		m.realPut(h, onLocalDone)
		return nil
	}
	h.inFlight = true
	h.puts++
	h.reissues = 0
	cost := m.rts.Platform().CkdPut.Resolve(h.sendBuf.Size())
	m.issuePut(h, h.puts, cost, onLocalDone)
	return nil
}

// issuePut pushes one copy of put seq onto the wire, paying the full
// CkdPut path cost. It is called once per Put by PutNotify and again per
// recovery attempt by the watchdog — a reissue is charged exactly like the
// original, so recovery latency shows up honestly in benchmarks.
func (m *Manager) issuePut(h *Handle, seq int64, cost netmodel.PathCost, onLocalDone func()) {
	hooks := netmodel.TransferHooks{
		Kind: netmodel.KindCkdPut,
		Flow: h.id,
		// A faulted put vanishes without any receiver-side trace — the
		// defining danger of unsynchronized one-sided communication. The
		// hook only keeps the accounting honest; detection is the
		// watchdog's job.
		OnFault: func(netmodel.Fault) {
			if rec := m.rts.Recorder(); rec != nil {
				rec.Incr(trace.CntCkdLostPuts, 1)
			}
		},
	}
	if onLocalDone != nil {
		hooks.OnSendDone = onLocalDone
	}
	if m.usesPolling() {
		// Infiniband: a true RDMA write. Bytes land with zero receiver
		// CPU; detection happens via the polling queue.
		hooks.OnDeliver = func() { m.deliverRDMA(h, seq) }
	} else {
		// Blue Gene/P: DCMF receive handler places the data and the
		// completion callback invokes the user callback; the cost is the
		// RecvCPU term of the CkdPut table.
		hooks.OnDeliver = func() {
			if h.delivered < seq {
				h.sendBuf.CopyTo(h.recvBuf)
			}
		}
		hooks.OnArrive = func() { m.deliverCallback(h, seq) }
	}
	m.wdArm(h, seq, cost)
	m.rts.Net().Transfer(h.sendPE, h.recvPE, cost, hooks)
}

// deliverRDMA runs at the instant the RDMA write completes in receiver
// memory (Infiniband backend).
func (m *Manager) deliverRDMA(h *Handle, seq int64) {
	if h.delivered >= seq {
		// Replay of an already-delivered put: a duplicate fault, or a
		// watchdog reissue whose original eventually made it. The bytes
		// are identical, the channel has moved on — discard.
		if rec := m.rts.Recorder(); rec != nil {
			rec.Incr(trace.CntCkdDupPuts, 1)
		}
		return
	}
	m.checkOverwrite(h)
	h.sendBuf.CopyTo(h.recvBuf)
	h.inFlight = false
	h.delivered = seq
	m.wdDisarm(h)
	// pendingDeliver means "bytes are in memory but no poll pass has
	// noticed yet"; for virtual regions it also stands in for the cleared
	// sentinel. Detection resets it.
	h.pendingDeliver = true
	if h.inPollQ {
		m.scheduleDetection(h)
	}
	// Otherwise the data landed between ReadyMark and ReadyPollQ: it is
	// detected when the receiver resumes polling (paper §2.1).
}

// deliverCallback is the Blue Gene/P arrival path: the user callback runs
// directly from the DCMF completion callback — no scheduler, no polling.
func (m *Manager) deliverCallback(h *Handle, seq int64) {
	if h.delivered >= seq {
		if rec := m.rts.Recorder(); rec != nil {
			rec.Incr(trace.CntCkdDupPuts, 1)
		}
		return
	}
	m.checkOverwrite(h)
	h.inFlight = false
	h.delivered = seq
	m.wdDisarm(h)
	h.state = Fired
	h.cb(m.rts.CtxOn(h.recvPE))
}

// checkOverwrite flags deliveries into a buffer whose previous contents
// the receiver has not released (state Fired means the callback ran but
// ReadyMark was not yet called).
func (m *Manager) checkOverwrite(h *Handle) {
	if (h.state == Fired || h.pendingDeliver) && m.rts.Options().Checked {
		m.misuse(fmt.Errorf("ckdirect: handle %d data overwritten before ReadyMark (application synchronization violated)", h.id))
	}
}

// scheduleDetection models the polling pass that notices the cleared
// sentinel: after the detection latency, the receiving PE spends
// DetectCPU + Callback CPU, removes the handle from the polling queue and
// invokes the callback.
func (m *Manager) scheduleDetection(h *Handle) {
	plat := m.rts.Platform()
	eng := m.rts.Engine()
	eng.Schedule(sim.Microseconds(plat.DetectLatencyUS), func() {
		if !m.sentinelCleared(h) {
			// The payload's last word equals the sentinel — the user
			// broke the out-of-band contract, so polling can never
			// observe the arrival. In checked mode this was already
			// reported at Put time; either way the channel stalls
			// exactly as real hardware would. A configured watchdog
			// turns the silent stall into a reported one.
			m.wdSentinelStall(h)
			return
		}
		m.pollRemove(h)
		h.pendingDeliver = false
		h.state = Fired
		pe := m.rts.Machine().PE(h.recvPE)
		_, end := pe.Reserve(sim.Microseconds(plat.DetectCPUUS + plat.CallbackUS))
		if rec := m.rts.Recorder(); rec != nil {
			rec.AddTime("ckd.detect", sim.Microseconds(plat.DetectCPUUS+plat.CallbackUS))
		}
		eng.At(end, func() {
			h.cb(m.rts.CtxOn(h.recvPE))
		})
	})
}

// ReadyMark re-arms the channel for the next iteration: the out-of-band
// pattern is stamped back into the receive buffer. It performs no
// communication and no synchronization with the sender (paper §2). On
// Blue Gene/P it only advances the state machine.
func (m *Manager) ReadyMark(h *Handle) {
	if h.state != Fired && m.rts.Options().Checked {
		m.misuse(fmt.Errorf("ckdirect: ReadyMark on handle %d in state %v", h.id, h.state))
	}
	if !m.usesPolling() {
		// No effect on BG/P (paper §2.2) beyond bookkeeping.
		h.state = Armed
		return
	}
	m.writeSentinel(h)
	h.state = Marked
}

// ReadyPollQ resumes polling the channel. Separating it from ReadyMark
// lets the application shorten the window in which the handle occupies
// the polling queue — the fix for OpenAtom's polling overhead (§5.2). If
// the next put already landed, the callback fires now.
func (m *Manager) ReadyPollQ(h *Handle) {
	if !m.usesPolling() {
		return
	}
	if h.state == Fired {
		if m.rts.Options().Checked {
			m.misuse(fmt.Errorf("ckdirect: ReadyPollQ on handle %d in state %v (ReadyMark missing)", h.id, h.state))
		}
		return
	}
	// Calling ReadyPollQ on an already-armed handle is a harmless no-op
	// (a phase boundary may re-arm channels that never left the queue).
	h.state = Armed
	if h.pendingDeliver {
		m.pollInsert(h) // momentarily; detection removes it
		m.scheduleDetection(h)
		return
	}
	m.pollInsert(h)
}

// Ready is the single-call form: ReadyMark immediately followed by
// ReadyPollQ (paper §2: applications without phase structure use this).
func (m *Manager) Ready(h *Handle) {
	m.ReadyMark(h)
	m.ReadyPollQ(h)
}

// misuse reports a contract violation: recorded in checked mode (the
// simulation keeps going, like a production RTS logging an error), and
// returned to the caller either way.
func (m *Manager) misuse(err error) error {
	if m.rts.Options().Checked {
		m.rts.ReportError(err)
	}
	return err
}
